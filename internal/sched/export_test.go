package sched

// PhasesTrace exposes the drained/deep-queue phase fixture to the
// external oracle suite.
var PhasesTrace = phasesTrace
