package sim

import (
	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// blockSource is the one producer of failure (or silent-error) arrivals for
// every replica walker: fail-stop, two-level and silent. It hands a replica
// its renewal stream from the substream rng.At(Seed, rep) as blocks of
// absolute arrival times; a walker keeps its cursor into the current block
// in locals and consumes each arrival with a plain load, calling refill only
// when the block runs out. Live blocks are drawn into the inline buffer by
// dist.Fill, so a replica's stream is exactly the sequence of prefix sums a
// scalar renewal process of Distribution.Sample draws accumulates, the same
// additions in the same order. A replayed fail-stop replica's first block is
// its TraceArena prefix, read in place.
//
// Each worker owns one blockSource inside its runner; it holds no pointer
// into per-replica state, so replicas allocate nothing.
type blockSource struct {
	// distrib is the shared inter-arrival law.
	distrib dist.Distribution

	src rng.Source

	// buf holds the live-drawn arrival blocks; drawn counts the arrivals
	// handed out to the current replica, and drawEWMA tracks the
	// per-replica consumption that sizes the live fills.
	buf      [fillBatch]float64
	drawn    int
	drawEWMA int

	// Trace replay: when tr is non-nil, the first block of replica rep is
	// its materialized arena prefix, read in place; refill then restores
	// the replica's saved generator state, so the live blocks that follow
	// continue the stream bit-identically to never having materialized
	// anything. inPrefix marks that prefix as not yet handed out.
	tr       *TraceArena
	rep      int
	inPrefix bool

	// Control-variate instrumentation for adaptive runs: when cvHorizon is
	// positive, refill counts the arrivals at or below it in every block it
	// hands out (see replicaRunner.runMeasured). Zero, the default and the
	// only value outside adaptive fail-stop campaigns, keeps the count off.
	cvHorizon float64
	cvCount   int
}

const (
	// fillBatch is the arrival-buffer capacity and the bulk fill size: long
	// fills keep rng state in registers and batch the logarithms.
	fillBatch = 32
	// minFill is the smallest live fill, used near the expected end of a
	// replica to bound the discarded tail.
	minFill = 8
	// fillSlack pads the expected remaining draws so a typical replica
	// finishes within its final fill instead of triggering one more.
	fillSlack = 4
)

// nextFillSize picks how many arrivals to pre-compute: the full batch while
// far from the expected per-replica consumption (ewma == 0 means unknown),
// shrinking to the expected remainder near the end.
func nextFillSize(ewma, drawn int) int {
	n := fillBatch
	if ewma > 0 {
		if rem := ewma - drawn + fillSlack; rem < n {
			n = rem
			if n < minFill {
				n = minFill
			}
		}
	}
	return n
}

// init sets the source's law and, for fail-stop trace replay, its arena
// (nil draws every stream live).
func (s *blockSource) init(d dist.Distribution, tr *TraceArena) {
	s.distrib, s.tr = d, tr
}

// start points the source at replica rep's stream: the substream
// rng.At(seed, rep), or its arena prefix when the source replays one.
func (s *blockSource) start(seed uint64, rep int) {
	s.rep = rep
	s.drawn, s.cvCount = 0, 0
	if s.tr == nil {
		s.src.Reseed(rng.At1(seed, uint64(rep)))
	} else {
		s.inPrefix = true
	}
}

// refill hands out the next block of the replica's arrival stream, which
// continues after last (the stream's latest arrival, 0 before the first).
// Out of line so the (rare) refill stays one call in the walkers' hot loops.
//
//go:noinline
func (s *blockSource) refill(last float64) []float64 {
	var blk []float64
	if s.inPrefix {
		s.inPrefix = false
		tr := s.tr
		blk = tr.arrivals[tr.offsets[s.rep]:tr.offsets[s.rep+1]]
		// Resume the generator exactly where arena generation left it.
		s.src.Restore(tr.states[s.rep])
	} else {
		blk = s.buf[:nextFillSize(s.drawEWMA, s.drawn)]
		dist.Fill(s.distrib, &s.src, blk, last)
	}
	s.drawn += len(blk)
	if h := s.cvHorizon; h > 0 {
		for _, a := range blk {
			if a > h {
				break
			}
			s.cvCount++
		}
	}
	return blk
}

// after advances a walker's cursor past time t: given the current arrival
// next and the cursor (blk, bpos) just past it, it returns the first arrival
// strictly after t and the cursor just past that one, refilling as blocks
// run out. The fail-stop walker inlines this loop on its hot paths.
func (s *blockSource) after(t, next float64, blk []float64, bpos int) (float64, []float64, int) {
	for next <= t {
		if bpos == len(blk) {
			blk, bpos = s.refill(next), 0
		}
		next = blk[bpos]
		bpos++
	}
	return next, blk, bpos
}

// finish feeds the adaptive fill sizing with what the replica used: every
// arrival handed out except the unused tail of its final block. Every
// replica restarts its stream, so that tail is discarded without effect.
func (s *blockSource) finish(unused int) {
	consumed := s.drawn - unused
	if s.drawEWMA == 0 {
		s.drawEWMA = consumed
	} else {
		s.drawEWMA += (consumed - s.drawEWMA) / 4
	}
}
