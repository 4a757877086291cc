// Package trace models platform failure traces: timestamped failure events
// attributed to nodes. Traces can be generated synthetically (per-node
// renewal processes superposed into a platform trace, as in the paper's
// "mu = mu_ind / N" relation), replayed into the protocol simulator, merged,
// analyzed, and (de)serialized for archival — a simulation-grade stand-in
// for cluster failure logs such as the Failure Trace Archive.
package trace

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// Event is a single failure: node `Node` fails at time `Time` (seconds).
type Event struct {
	Time float64
	Node int
}

// Trace is a time-ordered sequence of failure events.
type Trace struct {
	Events []Event
	// Horizon is the observation window [0, Horizon) the trace covers.
	Horizon float64
	// Nodes is the number of nodes the platform has (node ids in [0,Nodes)).
	Nodes int
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, e := range t.Events {
		if e.Time < 0 || e.Time > t.Horizon {
			return fmt.Errorf("trace: event %d at %v outside [0, %v]", i, e.Time, t.Horizon)
		}
		if e.Time < prev {
			return fmt.Errorf("trace: event %d out of order", i)
		}
		if e.Node < 0 || (t.Nodes > 0 && e.Node >= t.Nodes) {
			return fmt.Errorf("trace: event %d has invalid node %d", i, e.Node)
		}
		prev = e.Time
	}
	return nil
}

// GeneratePlatform draws a platform-level failure trace with the given MTBF
// over [0, horizon): a single renewal process, all events attributed to
// node 0. This matches the paper's simulator, which draws failures for the
// platform as a whole.
func GeneratePlatform(d dist.Distribution, horizon float64, src *rng.Source) *Trace {
	t := &Trace{Horizon: horizon, Nodes: 1}
	for now := d.Sample(src); now < horizon; now += d.Sample(src) {
		t.Events = append(t.Events, Event{Time: now, Node: 0})
	}
	return t
}

// GeneratePerNode draws one renewal process per node (individual MTBF
// distribution d) and superposes them into a single platform trace. For
// exponential d with mean mu_ind, the superposition is a Poisson process of
// rate n/mu_ind: the platform MTBF is mu_ind/n, the relation used throughout
// the paper.
func GeneratePerNode(d dist.Distribution, nodes int, horizon float64, src *rng.Source) *Trace {
	if nodes <= 0 {
		panic("trace: nodes must be positive")
	}
	dists := make([]dist.Distribution, nodes)
	for i := range dists {
		dists[i] = d
	}
	return GenerateHeterogeneous(dists, horizon, src)
}

// GenerateHeterogeneous draws one renewal process per node, node i with its
// own inter-arrival distribution dists[i], and superposes them into a single
// platform trace. This models heterogeneous failure processes — e.g. a batch
// of infant-mortality nodes (Weibull shape < 1) installed next to burnt-in
// exponential ones — which no single platform-level renewal process can
// express. The platform failure rate is the sum of the per-node rates
// 1/dists[i].Mean().
func GenerateHeterogeneous(dists []dist.Distribution, horizon float64, src *rng.Source) *Trace {
	if len(dists) == 0 {
		panic("trace: GenerateHeterogeneous needs at least one node")
	}
	t := &Trace{Horizon: horizon, Nodes: len(dists)}
	for node, d := range dists {
		nodeSrc := src.Split()
		for now := d.Sample(nodeSrc); now < horizon; now += d.Sample(nodeSrc) {
			t.Events = append(t.Events, Event{Time: now, Node: node})
		}
	}
	t.Sort()
	return t
}

// GenerateHeterogeneousCascade draws the per-node renewal superposition of
// GenerateHeterogeneous and layers correlated failure propagation on top:
// every failure — primary or triggered — spreads to another node with
// probability prob after a delay drawn from delay, so correlated bursts form
// geometric chains of expected length 1/(1-prob) (a switch or PDU failure
// taking down its neighbours within minutes). Follow-on failures past the
// horizon are dropped along with the rest of their chain. With prob 0 the
// result is identical to GenerateHeterogeneous on the same source.
func GenerateHeterogeneousCascade(dists []dist.Distribution, horizon, prob float64, delay dist.Distribution, src *rng.Source) *Trace {
	if !(prob >= 0 && prob < 1) {
		panic(fmt.Sprintf("trace: cascade probability must be in [0,1), got %v", prob))
	}
	if prob > 0 && delay == nil {
		panic("trace: cascade with prob > 0 needs a delay distribution")
	}
	t := GenerateHeterogeneous(dists, horizon, src)
	if prob == 0 {
		return t
	}
	casc := src.Split()
	n := len(dists)
	// Walk the independent events in time order and grow each one's chain
	// depth-first; chains never re-trigger their seeds, so iterating over the
	// pre-cascade snapshot visits every chain root exactly once.
	roots := t.Events
	for _, root := range roots {
		cur := root
		for casc.Float64() < prob {
			next := Event{Time: cur.Time + delay.Sample(casc), Node: cur.Node}
			if n > 1 {
				// The failure propagates to a uniformly chosen *other* node.
				if k := casc.Intn(n - 1); k >= cur.Node {
					next.Node = k + 1
				} else {
					next.Node = k
				}
			}
			if next.Time >= horizon {
				break
			}
			t.Events = append(t.Events, next)
			cur = next
		}
	}
	t.Sort()
	return t
}

// Sort orders events by time (stable on node id for equal times).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Time != t.Events[j].Time {
			return t.Events[i].Time < t.Events[j].Time
		}
		return t.Events[i].Node < t.Events[j].Node
	})
}

// Merge combines several traces into one (e.g. independent failure classes:
// hardware, software, network). Horizons must match; node ids are offset so
// each input keeps distinct nodes.
func Merge(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, errors.New("trace: nothing to merge")
	}
	out := &Trace{Horizon: traces[0].Horizon}
	offset := 0
	for _, in := range traces {
		if in.Horizon != out.Horizon {
			return nil, fmt.Errorf("trace: horizon mismatch %v vs %v", in.Horizon, out.Horizon)
		}
		for _, e := range in.Events {
			out.Events = append(out.Events, Event{Time: e.Time, Node: e.Node + offset})
		}
		n := in.Nodes
		if n == 0 {
			n = 1
		}
		offset += n
	}
	out.Nodes = offset
	out.Sort()
	return out, nil
}

// EmpiricalMTBF returns the mean inter-arrival time between platform
// failures (NaN for traces with fewer than 2 events).
func (t *Trace) EmpiricalMTBF() float64 {
	if len(t.Events) < 2 {
		return math.NaN()
	}
	span := t.Events[len(t.Events)-1].Time - t.Events[0].Time
	return span / float64(len(t.Events)-1)
}

// InterArrivals returns the successive inter-arrival gaps.
func (t *Trace) InterArrivals() []float64 {
	if len(t.Events) < 2 {
		return nil
	}
	out := make([]float64, len(t.Events)-1)
	for i := 1; i < len(t.Events); i++ {
		out[i-1] = t.Events[i].Time - t.Events[i-1].Time
	}
	return out
}

// CountInWindow returns the number of failures in [from, to).
func (t *Trace) CountInWindow(from, to float64) int {
	lo := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Time >= from })
	hi := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Time >= to })
	return hi - lo
}

// Source replays a Trace's events as a failure stream (NextAfter).
// Beyond the recorded horizon the replay continues with a renewal process at
// the trace's empirical MTBF (a trace is finite; a simulation may not be),
// unless Extend is nil in which case no further failures occur.
type Source struct {
	trace  *Trace
	idx    int
	extend *rng.Source
	exp    dist.Distribution
	next   float64
}

// NewSource builds a replay source. extend may be nil to stop failing after
// the trace's last event.
func NewSource(t *Trace, extend *rng.Source) *Source {
	s := &Source{trace: t, extend: extend, next: math.Inf(1)}
	if extend != nil {
		mtbf := t.EmpiricalMTBF()
		if !math.IsNaN(mtbf) && mtbf > 0 {
			s.exp = dist.NewExponential(mtbf)
		}
	}
	return s
}

// NextAfter returns the first failure time strictly after tm.
func (s *Source) NextAfter(tm float64) float64 {
	for s.idx < len(s.trace.Events) {
		if s.trace.Events[s.idx].Time > tm {
			return s.trace.Events[s.idx].Time
		}
		s.idx++
	}
	if s.exp == nil {
		return math.Inf(1)
	}
	if math.IsInf(s.next, 1) {
		s.next = s.trace.Horizon
	}
	for s.next <= tm {
		s.next += s.exp.Sample(s.extend)
	}
	return s.next
}

// WriteCSV serializes the trace as "time,node" rows with a header carrying
// the horizon and node count.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# horizon=%g nodes=%d\n", t.Horizon, t.Nodes); err != nil {
		return err
	}
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"time", "node"}); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := cw.Write([]string{
			strconv.FormatFloat(e.Time, 'g', -1, 64),
			strconv.Itoa(e.Node),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	t := &Trace{}
	if _, err := fmt.Sscanf(header, "# horizon=%g nodes=%d", &t.Horizon, &t.Nodes); err != nil {
		return nil, fmt.Errorf("trace: malformed header %q: %w", header, err)
	}
	cr := csv.NewReader(br)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading rows: %w", err)
	}
	for i, row := range rows {
		if i == 0 && row[0] == "time" {
			continue // column header
		}
		if len(row) != 2 {
			return nil, fmt.Errorf("trace: row %d has %d fields", i, len(row))
		}
		tm, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i, err)
		}
		node, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d node: %w", i, err)
		}
		t.Events = append(t.Events, Event{Time: tm, Node: node})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
