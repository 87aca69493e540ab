package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/altpolicy"
	"repro/internal/core"
	"repro/internal/sched"
)

// baselineDesc is the canonical policy descriptor of the no-DVFS
// baseline.
const baselineDesc = "noDVFS"

// policyDescriptor canonicalizes a gear policy for hashing. The paper's
// policy hashes its full parameter set — Name() alone ("bsld(2,16)")
// omits Boost, StrictBackfillBSLD and ShortJobThreshold, which would make
// distinct configurations collide. Other policy implementations fall back
// to their Name with a marker recording that the descriptor may not cover
// every knob.
func policyDescriptor(p sched.GearPolicy) string {
	switch pol := p.(type) {
	case *core.Policy:
		return fmt.Sprintf("core!%+v", pol.Params())
	case sched.FixedGear:
		return "fixed!" + pol.Gear.String()
	default:
		return "opaque!" + p.Name()
	}
}

// controllerDescriptor canonicalizes a power controller for hashing,
// with the same full-fidelity rule as policyDescriptor: the power-cap
// controller hashes every result-relevant knob (resolved gains
// included), other implementations fall back to Name with an opaque
// marker.
func controllerDescriptor(c sched.PowerController) string {
	switch ctrl := c.(type) {
	case *altpolicy.PowerCap:
		return fmt.Sprintf("powercap!cap=%.17g|kp=%.17g|ki=%.17g|eco=%t",
			ctrl.CapFrac, ctrl.Kp, ctrl.Ki, ctrl.EcoOnly)
	default:
		return "opaque!" + c.Name()
	}
}

// contentHash computes the canonical scenario hash: SHA-256 over a
// line-oriented canonical form covering everything that determines the
// Results — the workload descriptor, the resolved machine size, the
// scheduling options, gears, power model, β, Th and the policy
// descriptor. Result-neutral knobs (KeepCollector, ExtraRecorders,
// Materialize) are excluded: the verification spine proves them
// byte-identical. Floats print with %g at full round-trip precision.
func (s *Scenario) contentHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "v1\nworkload=%s\ncpus=%d\n", s.wdesc, s.cpus)
	fmt.Fprintf(h, "variant=%s\nselection=%s\norder=%s\nreservations=%d\n",
		s.variant, s.selection, s.order, s.reservations)
	for _, g := range s.gears {
		fmt.Fprintf(h, "gear=%.17g:%.17g\n", g.Freq, g.Voltage)
	}
	fmt.Fprintf(h, "pm=%.17g:%.17g:%.17g\n", s.pm.ACRunning, s.pm.ActivityRatio, s.pm.StaticFraction)
	fmt.Fprintf(h, "beta=%.17g\nshortth=%.17g\n", s.beta, s.shortTh)
	fmt.Fprintf(h, "policy=%s\n", s.policyDesc)
	if s.controllerDesc != "" {
		// Appended only when a controller is configured, so every
		// controller-free scenario hashes exactly as it did before the
		// controller layer existed (cache keys survive the upgrade).
		fmt.Fprintf(h, "controller=%s\n", s.controllerDesc)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ── Hash-coverage declaration ────────────────────────────────────────
//
// Machine-checked by reprovet's hashcover analyzer (internal/analysis):
// every field of Spec must appear in exactly one of the two maps below,
// and every Scenario field named on the right-hand side of hashedVia
// must actually be read by contentHash above. Adding a Spec field
// without extending one of these maps — i.e. without deciding whether
// the field is part of the cache key — fails `go test ./...` (the
// driver test in internal/analysis) and the CI reprovet step.
//
// How to classify a new Spec field:
//
//  1. Could the field change any byte of the Outcome (the schedule, the
//     Results, controller stats)? Then it is result-relevant: fold its
//     canonical resolved form into contentHash, and record in hashedVia
//     which Scenario field carries it there. Hash the RESOLVED form,
//     not the raw spec value, so spellings that compile identically
//     ("easy" vs "") share a cache entry.
//
//  2. Otherwise it must be proven result-neutral the way the entries of
//     hashNeutral are — a byte-identity test in the verification spine
//     exercising both settings — and allowlisted here with that
//     justification. Never allowlist a field because hashing it is
//     inconvenient: a missed result-relevant field silently poisons
//     cmd/schedd's cache key and any future hash-sharded backends,
//     returning one configuration's results for another's query.

// hashedVia maps each result-relevant Spec field to the resolved
// Scenario field that carries it into contentHash.
var hashedVia = map[string]string{
	// The workload: name/Jobs/SWFCPUs/Filter (and the pre-resolved
	// Trace/Source/Factory escape hatches) all fold into the canonical
	// workload descriptor line.
	"Workload": "wdesc",
	"Jobs":     "wdesc",
	"SWFCPUs":  "wdesc",
	"Filter":   "wdesc",
	"Trace":    "wdesc",
	"Source":   "wdesc",
	"Factory":  "wdesc",

	// Machine size: SizeFactor and CPUs resolve to one processor count.
	"SizeFactor": "cpus",
	"CPUs":       "cpus",

	// Scheduling options.
	"Variant":      "variant",
	"Selection":    "selection",
	"Order":        "order",
	"Reservations": "reservations",

	// Power and execution-time model.
	"Gears":      "gears",
	"PowerModel": "pm",
	"Beta":       "beta",
	"ShortJobTh": "shortTh",

	// Gear policy and power controller, via their full-fidelity
	// canonical descriptors (policyDescriptor / controllerDescriptor).
	"Policy":         "policyDesc",
	"GearPolicy":     "policyDesc",
	"Controller":     "controllerDesc",
	"GearController": "controllerDesc",
}

// hashNeutral is the documented result-neutral allowlist: Spec fields
// deliberately excluded from the hash, each with the proof that makes
// the exclusion safe.
var hashNeutral = map[string]string{
	"Materialize":    "arena replay vs cloned-cursor streaming is pinned bit-identical (TestStreamMatchesGenerate; BenchmarkStreamingMillionHeap asserts Results equality in-bench)",
	"KeepCollector":  "retained per-job records never change Results: the streaming collector folds them online bit-identically (streaming-vs-retained collector tests)",
	"ExtraRecorders": "recorders observe the run; one that mutated scheduling state would break its own Recorder contract, not the hash",
}

// HashCoverage returns copies of the hash-coverage declaration: the
// Spec-field→Scenario-field map the canonical hash covers, and the
// result-neutral allowlist with its justifications. Exposed for tests
// and tooling; the authoritative check is reprovet's hashcover analyzer.
func HashCoverage() (hashed, neutral map[string]string) {
	hashed = make(map[string]string, len(hashedVia))
	//lint:nondeterm copying map→map is order-insensitive
	for k, v := range hashedVia {
		hashed[k] = v
	}
	neutral = make(map[string]string, len(hashNeutral))
	//lint:nondeterm copying map→map is order-insensitive
	for k, v := range hashNeutral {
		neutral[k] = v
	}
	return hashed, neutral
}
