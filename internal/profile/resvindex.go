package profile

import "sort"

// The chunked ordered reservation index holds the profile's reservation
// tier. A conservative pass places one reservation per queued job and
// queries EarliestStart between placements; with a flat tier pair (a
// merged slice plus a lazily re-sorted pending slice) every out-of-order
// placement forces the next query to re-sort the whole pending slice, and
// every flush re-merges the merged tier — O(k²·log k) sorting work per
// pass over k reservations. The index keeps
// the reservation deltas totally ordered in a directory of small sorted
// chunks (the relindex.go idiom): an insert or removal binary-searches
// the directory, then moves at most one chunk's worth of entries, and a
// per-chunk running sum makes the usage-at-`from` prefix a directory
// walk instead of a binary search over a freshly merged slice. The
// EarliestStart overlay walks the chunks in time order. The tests hold
// it to a sorted-slice model.
const (
	// resvChunkMax is the split threshold: a chunk reaching this many
	// deltas is halved. Reservation deltas are 16 bytes, so a mutation
	// memmoves at most a few cache lines.
	resvChunkMax = 256
	// resvChunkMin is the merge threshold: a chunk draining below it is
	// folded into a neighbor when the pair fits, bounding directory
	// growth under truncate-heavy churn.
	resvChunkMin = resvChunkMax / 8
	// resvChunkFill is the target fill of bulk-loaded chunks, leaving
	// headroom so a load followed by inserts doesn't split immediately.
	resvChunkFill = resvChunkMax / 2
)

// resvIndex is an ordered index over reservation usage deltas, keyed by
// time (duplicates allowed — equal-time deltas are interchangeable to
// every query): a directory of sorted chunks whose key ranges are
// disjoint and ascending, each carrying the running sum of its deltas.
// The zero value is an empty index.
type resvIndex struct {
	chunks [][]delta // each non-empty, sorted by t, < resvChunkMax entries
	sums   []int     // sums[i] = Σ d over chunks[i]
	size   int
	spare  [][]delta // recycled chunk backings
}

// len returns the number of indexed deltas.
func (ix *resvIndex) len() int { return ix.size }

// reset empties the index, recycling every chunk backing.
func (ix *resvIndex) reset() {
	for i, ch := range ix.chunks {
		ix.spare = append(ix.spare, ch[:0])
		ix.chunks[i] = nil
	}
	ix.chunks = ix.chunks[:0]
	ix.sums = ix.sums[:0]
	ix.size = 0
}

// newChunk pops a recycled chunk backing or allocates a fresh one.
func (ix *resvIndex) newChunk() []delta {
	if n := len(ix.spare); n > 0 {
		ch := ix.spare[n-1]
		ix.spare[n-1] = nil
		ix.spare = ix.spare[:n-1]
		return ch
	}
	return make([]delta, 0, resvChunkMax)
}

// findChunk returns the index of the first chunk whose last key is at or
// after t — the first chunk that may hold a delta at t — or len(chunks)
// when t is beyond every chunk.
func (ix *resvIndex) findChunk(t float64) int {
	return sort.Search(len(ix.chunks), func(i int) bool {
		ch := ix.chunks[i]
		return ch[len(ch)-1].t >= t
	})
}

// insert adds d, keeping the chunk holding its position sorted and
// splitting it when it reaches the capacity threshold. Equal-time deltas
// insert after their peers (minimal movement; order among them is
// irrelevant to queries and removal).
func (ix *resvIndex) insert(d delta) {
	if len(ix.chunks) == 0 {
		ix.chunks = append(ix.chunks, append(ix.newChunk(), d))
		ix.sums = append(ix.sums, d.d)
		ix.size = 1
		return
	}
	ci := ix.findChunk(d.t)
	if ci == len(ix.chunks) {
		ci-- // beyond every key: extend the last chunk
	}
	ch := ix.chunks[ci]
	k := sort.Search(len(ch), func(i int) bool { return ch[i].t > d.t })
	ch = append(ch, delta{})
	copy(ch[k+1:], ch[k:])
	ch[k] = d
	ix.chunks[ci] = ch
	ix.sums[ci] += d.d
	ix.size++
	if len(ch) >= resvChunkMax {
		ix.split(ci)
	}
}

// split halves the chunk at ci into two directory entries.
func (ix *resvIndex) split(ci int) {
	ch := ix.chunks[ci]
	mid := len(ch) / 2
	right := append(ix.newChunk(), ch[mid:]...)
	rsum := 0
	for _, d := range right {
		rsum += d.d
	}
	ix.chunks = append(ix.chunks, nil)
	copy(ix.chunks[ci+2:], ix.chunks[ci+1:])
	ix.chunks[ci] = ch[:mid]
	ix.chunks[ci+1] = right
	ix.sums = append(ix.sums, 0)
	copy(ix.sums[ci+2:], ix.sums[ci+1:])
	ix.sums[ci+1] = rsum
	ix.sums[ci] -= rsum
}

// removeOne deletes one delta matching (t, dv), reporting whether one was
// present. Equal-time runs may span chunk boundaries, so the scan walks
// forward from the first candidate chunk until the key is passed.
func (ix *resvIndex) removeOne(t float64, dv int) bool {
	for ci := ix.findChunk(t); ci < len(ix.chunks) && ix.chunks[ci][0].t <= t; ci++ {
		ch := ix.chunks[ci]
		for k := sort.Search(len(ch), func(i int) bool { return ch[i].t >= t }); k < len(ch) && ch[k].t == t; k++ {
			if ch[k].d != dv {
				continue
			}
			copy(ch[k:], ch[k+1:])
			ch = ch[:len(ch)-1]
			ix.chunks[ci] = ch
			ix.sums[ci] -= dv
			ix.size--
			switch {
			case len(ch) == 0:
				ix.dropChunk(ci)
			case len(ch) < resvChunkMin:
				ix.mergeAt(ci)
			}
			return true
		}
	}
	return false
}

// dropChunk removes the (empty) directory entry at ci.
func (ix *resvIndex) dropChunk(ci int) {
	ix.spare = append(ix.spare, ix.chunks[ci][:0])
	copy(ix.chunks[ci:], ix.chunks[ci+1:])
	ix.chunks[len(ix.chunks)-1] = nil
	ix.chunks = ix.chunks[:len(ix.chunks)-1]
	copy(ix.sums[ci:], ix.sums[ci+1:])
	ix.sums = ix.sums[:len(ix.sums)-1]
}

// mergeAt folds the underfull chunk at ci into its smaller neighbor when
// the combined chunk stays clear of the split threshold; a small chunk
// next to two near-full neighbors is left alone (its neighbors' fullness
// bounds the directory size).
func (ix *resvIndex) mergeAt(ci int) {
	ch := ix.chunks[ci]
	into := -1
	if ci > 0 {
		into = ci - 1
	}
	if ci+1 < len(ix.chunks) && (into < 0 || len(ix.chunks[ci+1]) < len(ix.chunks[into])) {
		into = ci + 1
	}
	if into < 0 || len(ch)+len(ix.chunks[into]) > 3*resvChunkMax/4 {
		return
	}
	ix.sums[into] += ix.sums[ci]
	ix.sums[ci] = 0
	if into == ci-1 {
		ix.chunks[into] = append(ix.chunks[into], ch...)
		ix.chunks[ci] = ch[:0]
	} else {
		// Prepend ch to the right neighbor, reusing ch's backing.
		merged := append(ch, ix.chunks[into]...)
		ix.chunks[ci] = ix.chunks[into][:0]
		ix.chunks[into] = merged
	}
	ix.dropChunk(ci)
}

// load bulk-initializes the index from a time-sorted delta slice, filling
// chunks to the target fill so follow-up inserts have headroom. The slice
// is not retained.
func (ix *resvIndex) load(ds []delta) {
	ix.reset()
	for len(ds) > 0 {
		n := resvChunkFill
		if len(ds) < n {
			n = len(ds)
		}
		sum := 0
		for _, d := range ds[:n] {
			sum += d.d
		}
		ix.chunks = append(ix.chunks, append(ix.newChunk(), ds[:n]...))
		ix.sums = append(ix.sums, sum)
		ix.size += n
		ds = ds[n:]
	}
}

// seek positions a cursor at the first delta with time strictly after
// `from`, returning its (chunk, offset) position and the sum of every
// delta at or before `from` — the reservation tier's usage contribution
// at the query start. Whole chunks before the boundary contribute their
// precomputed sums; only the boundary chunk is scanned.
func (ix *resvIndex) seek(from float64) (ci, k, sum int) {
	for ci < len(ix.chunks) {
		ch := ix.chunks[ci]
		if ch[len(ch)-1].t <= from {
			sum += ix.sums[ci]
			ci++
			continue
		}
		k = sort.Search(len(ch), func(i int) bool { return ch[i].t > from })
		for _, d := range ch[:k] {
			sum += d.d
		}
		return ci, k, sum
	}
	return ci, 0, sum
}

// sumAt returns the sum of every delta at or before t — the point query
// behind UsedAt.
func (ix *resvIndex) sumAt(t float64) int {
	_, _, sum := ix.seek(t)
	return sum
}
