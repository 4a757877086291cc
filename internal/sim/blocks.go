package sim

import (
	"slices"

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
// additions in the same order.
//
// A fail-stop stream may also start from a shared prefix, read in place: a
// cohort's live stream (SimulateCohort), which every member walks in turn
// and which grows whenever a walk reaches its end, up to streamCap
// arrivals. A walk that outruns the prefix continues privately from the
// generator state just past it, so the stream is bit-identical to never
// having shared anything.
//
// Each worker owns one blockSource inside its runner (a cohort worker's
// member runners share one); it holds no pointer into per-replica state, so
// replicas allocate nothing once a cohort's prefix buffer has grown.
type blockSource struct {
	// distrib is the shared inter-arrival law.
	distrib dist.Distribution

	src rng.Source

	// buf holds the live-drawn arrival blocks; drawn counts the arrivals
	// handed out to the current walk, and drawEWMA tracks the per-walk
	// consumption that sizes the live fills.
	buf      [fillBatch]float64
	drawn    int
	drawEWMA int

	// The shared prefix of the current replica's stream. prefix may grow
	// (extend) to prefixMax arrivals, prefixSrc is the generator just past
	// it, and pos counts the prefix arrivals handed to the current walk:
	// -1 once the walk continues privately, and for a replica started
	// live, which has no prefix. streamUsed is the most of the prefix a
	// walk of the current replica consumed; streamEWMA tracks it across
	// replicas and sizes the extensions.
	prefix                 []float64
	prefixMax              int
	prefixSrc              rng.Source
	pos                    int
	streamUsed, streamEWMA int

	// Control-variate instrumentation for adaptive runs: when cvHorizon is
	// positive, refill counts the arrivals at or below it in every block it
	// hands out (see replicaRunner.measure). Zero, the default and the
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

// streamCap caps a cohort's shared per-replica stream: a worker's prefix
// buffer grows to the most any member walks, but never past 1<<16 arrivals
// (512 KiB). A member that outruns it continues privately from the
// generator state just past the prefix, so the cap bounds memory and never
// changes a result.
const streamCap = 1 << 16

// streamInit is the capacity a worker's prefix buffer starts at (4 KiB),
// enough for most replicas' streams, so a cohort walk usually allocates
// it once.
const streamInit = 512

// start points the source at replica rep's stream for one walk: the
// substream rng.At(seed, rep), drawn live into the inline buffer.
func (s *blockSource) start(seed uint64, rep int) {
	s.src.Reseed(rng.At1(seed, uint64(rep)))
	s.pos, s.drawn, s.cvCount = -1, 0, 0
}

// share points the source at replica rep's stream as a cohort's growing
// prefix, empty until a walk draws it; each member's walk then begins with
// rewind.
func (s *blockSource) share(seed uint64, rep int) {
	if s.streamUsed > 0 {
		s.streamEWMA = ewma(s.streamEWMA, s.streamUsed)
		s.streamUsed = 0
	}
	s.prefixSrc.Reseed(rng.At1(seed, uint64(rep)))
	if s.prefix == nil {
		s.prefix = make([]float64, 0, streamInit)
	}
	s.prefix, s.prefixMax = s.prefix[:0], streamCap
}

// rewind starts one member's walk of the shared stream from its first
// arrival, counting control-variate arrivals up to cvHorizon (0: off).
func (s *blockSource) rewind(cvHorizon float64) {
	s.pos, s.drawn, s.cvCount, s.cvHorizon = 0, 0, 0, cvHorizon
}

// refill hands out the next block of the replica's arrival stream, which
// continues after last (the stream's latest arrival, 0 before the first):
// the rest of the shared prefix, extended first when the walk has reached
// its end, and past the prefix a live block. Out of line so the (rare)
// refill stays one call in the walkers' hot loops.
//
//go:noinline
func (s *blockSource) refill(last float64) []float64 {
	var blk []float64
	if s.pos >= 0 {
		if s.pos == len(s.prefix) && s.pos < s.prefixMax {
			s.extend(last)
		}
		if s.pos < len(s.prefix) {
			blk = s.prefix[s.pos:]
			s.pos = len(s.prefix)
		} else {
			// Continue privately where the prefix's generator stopped.
			s.src, s.pos = s.prefixSrc, -1
		}
	}
	if blk == nil {
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

// extend draws the next arrivals of a cohort's shared stream onto its
// prefix, continuing after last; the fill size tracks the replicas' usual
// consumption, as the live fills do.
func (s *blockSource) extend(last float64) {
	at := len(s.prefix)
	n := min(nextFillSize(s.streamEWMA, at), s.prefixMax-at)
	s.prefix = slices.Grow(s.prefix, n)[:at+n]
	dist.Fill(s.distrib, &s.prefixSrc, s.prefix[at:], last)
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

// finish feeds the adaptive fill sizing with what the walk used: every
// arrival handed out except the unused tail of its final block. Every
// replica restarts its stream, so that tail is discarded without effect
// (a cohort's next member reads it from the prefix).
func (s *blockSource) finish(unused int) {
	s.drawEWMA = ewma(s.drawEWMA, s.drawn-unused)
	used := len(s.prefix)
	if s.pos >= 0 {
		used = s.pos - unused
	}
	s.streamUsed = max(s.streamUsed, used)
}

// ewma folds one replica's consumption into a running estimate (0:
// none yet).
func ewma(avg, n int) int {
	if avg == 0 {
		return n
	}
	return avg + (n-avg)/4
}
