package core

// Verdict replay: runs whose configs differ only in the reuse buffer
// see the same instruction stream and get the same census verdicts, so
// only the first of them needs the census and the other six observers.
// A ReplayGroups registry in the context groups such runs: the sweep
// engine installs one per Execute, and the jobs manager one for its
// lifetime. The first run of a group to reach Run leads, runs the full
// pipeline and records one verdict bit per measured instruction, and
// every later member runs the simulator again with only its own reuse
// buffer attached, fed those verdicts, and copies every other statistic
// from the leader's report. See DESIGN.md §17.

import (
	"container/list"
	"context"
	"encoding/json"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/reuse"
)

// replayGroupsBytes bounds what one registry's published groups hold.
// A group holds its verdict bitmap (6.25 KB at a 50k-instruction window,
// 625 KB at the CLI's 5M) and its leader's report, so this keeps about
// fifty groups at the CLI's window and thousands at the golden grid's.
const replayGroupsBytes = 32 << 20

// ReplayGroups is a registry of runs that may replay each other's census
// verdicts. It keeps the groups whose leaders published within
// replayGroupsBytes, evicting the one used least recently past that, so
// it may live as long as the process that serves the runs. A group whose
// leader is still running is never evicted, and one whose leader
// published nothing leaves the registry when that leader returns, so the
// group's next run leads. Safe for concurrent use.
type ReplayGroups struct {
	mu     sync.Mutex
	groups map[groupKey]*group
	lru    list.List // published groups, most recently used first
	bytes  int64     // what the published groups hold
	max    int64     // the bound on bytes
}

// NewReplayGroups builds an empty registry.
func NewReplayGroups() *ReplayGroups {
	return &ReplayGroups{groups: make(map[groupKey]*group), max: replayGroupsBytes}
}

type replayGroupsKey struct{}

// WithReplayGroups returns a context carrying gs: every Run under it
// joins gs's groups when its config is eligible.
func WithReplayGroups(ctx context.Context, gs *ReplayGroups) context.Context {
	return context.WithValue(ctx, replayGroupsKey{}, gs)
}

// groupKey identifies the runs that see the same stream and get the
// same census verdicts: the same image and input, and the same
// measurement config once the reuse buffer's geometry and policy are
// set aside.
type groupKey struct {
	im      *program.Image
	name    string
	input   string
	measure string
}

func groupKeyOf(im *program.Image, input []byte, name string, cfg Config) groupKey {
	cfg.ReuseEntries, cfg.ReuseAssoc, cfg.ReusePolicy = 0, 0, 0
	return groupKey{im: im, name: name, input: string(input), measure: cfg.MeasurementKey()}
}

// group is one group's rendezvous: done closes when its leader's Run
// returns, and rec is set before that only when the leader published.
type group struct {
	gs   *ReplayGroups
	key  groupKey
	done chan struct{}
	rec  *verdicts
	el   *list.Element // the group's place in gs.lru, once published
	size int64         // what the published group holds
}

// verdicts is what a complete leader publishes: its census verdicts,
// one bit per measured instruction in retire order, and the report a
// replay copies everything but the reuse figures from.
type verdicts struct {
	bits     []uint64
	n        uint64 // verdicts recorded
	repeated uint64 // the census's RepeatedInstructions
	rep      *Report
}

// record is the leader's verdict stage: it appends one bit per
// instruction the census classified.
func (v *verdicts) record(b *batch) {
	if !b.counting {
		return
	}
	for _, repeated := range b.vers {
		w := v.n >> 6
		if w == uint64(len(v.bits)) {
			v.bits = append(v.bits, 0)
		}
		if repeated {
			v.bits[w] |= 1 << (v.n & 63)
		}
		v.n++
	}
}

// at returns the i-th verdict (false past the end).
func (v *verdicts) at(i uint64) bool {
	return i < v.n && v.bits[i>>6]>>(i&63)&1 != 0
}

// repeatedBefore counts the repeated verdicts among the first n.
func (v *verdicts) repeatedBefore(n uint64) uint64 {
	n = min(n, v.n)
	var c int
	for _, w := range v.bits[:n>>6] {
		c += bits.OnesCount64(w)
	}
	if r := n & 63; r != 0 {
		c += bits.OnesCount64(v.bits[n>>6] & (1<<r - 1))
	}
	return uint64(c)
}

// replayable reports whether a run may lead or replay. A fault plan
// changes what the run observes, and a run without a reuse buffer has
// nothing to replay. A checkpoint policy does not matter: a leader
// snapshots as any full run does, and a replay never loads or writes a
// snapshot (DESIGN.md §17).
func replayable(cfg Config) bool {
	return cfg.Faults == nil && !cfg.DisableReuse
}

// joinGroup places a run in its group, when the context carries a
// registry and the config is eligible. The first run of a group leads:
// it gets the group back, to publish into and settle. Every later run
// waits for the leader, or for ctx to end, and gets the leader's
// verdicts, or nil when the leader published none or the wait was
// canceled; a nil record means a full run.
func joinGroup(ctx context.Context, im *program.Image, input []byte, name string, cfg Config) (lead *group, rec *verdicts) {
	gs, _ := ctx.Value(replayGroupsKey{}).(*ReplayGroups)
	if gs == nil || !replayable(cfg) {
		return nil, nil
	}
	k := groupKeyOf(im, input, name, cfg)
	gs.mu.Lock()
	g, ok := gs.groups[k]
	if !ok {
		g = &group{gs: gs, key: k, done: make(chan struct{})}
		gs.groups[k] = g
	} else if g.el != nil {
		gs.lru.MoveToFront(g.el)
	}
	gs.mu.Unlock()
	if !ok {
		return g, nil
	}
	select {
	case <-g.done:
		return nil, g.rec
	case <-ctx.Done():
		return nil, nil
	}
}

// publish makes a complete leader's verdicts available to its group.
// The report is kept in canonical form: replays share its slices, which
// are read-only.
func (g *group) publish(rec *verdicts, rep *Report, repeated uint64) {
	rec.repeated = repeated
	rec.rep = CanonicalReport(rep)
	g.rec = rec
}

// settle ends the leader's run. A published group joins the registry's
// LRU list and counts its bytes, and the published groups used least
// recently are evicted past the bound, this one too if it alone exceeds
// it. A group with nothing published leaves the registry. Either way
// the runs waiting on the group wake: they hold it, so they still get
// an evicted group's verdicts.
func (g *group) settle() {
	if g.rec != nil {
		g.size = g.rec.size() // encodes the report: outside the lock
	}
	gs := g.gs
	gs.mu.Lock()
	if g.rec == nil {
		delete(gs.groups, g.key)
	} else {
		g.el = gs.lru.PushFront(g)
		gs.bytes += g.size
		for gs.bytes > gs.max {
			old := gs.lru.Remove(gs.lru.Back()).(*group)
			delete(gs.groups, old.key)
			gs.bytes -= old.size
		}
	}
	gs.mu.Unlock()
	close(g.done)
}

// size is what a published record holds: its bitmap, and its report
// counted at the length of its JSON encoding (or at the struct's size,
// for a report that does not encode).
func (v *verdicts) size() int64 {
	n := int64(unsafe.Sizeof(*v.rep))
	if data, err := json.Marshal(v.rep); err == nil {
		n = int64(len(data))
	}
	return n + 8*int64(len(v.bits))
}

// replay observes a replaying run's measure window: the run's own reuse
// buffer, fed the leader's verdicts in retire order. It is the machine's
// observer from the window's first instruction on; the skip window runs
// with nothing attached.
type replay struct {
	m   *cpu.Machine
	buf *reuse.Buffer
	rec *verdicts
	n   uint64 // instructions observed
}

func newReplay(m *cpu.Machine, cfg Config, rec *verdicts) *replay {
	buf := reuse.NewPolicy(cfg.ReuseEntries, cfg.ReuseAssoc, cfg.ReusePolicy, m.Image.StaticInstructions())
	return &replay{m: m, buf: buf, rec: rec}
}

// OnInst implements cpu.Observer.
func (r *replay) OnInst(ev *cpu.Event) {
	r.buf.Observe(ev, r.rec.at(r.n))
	r.n++
}

func (r *replay) open()  { r.m.Attach(r) }
func (r *replay) drain() {}

// Collect is the leader's report with this run's Table 10 figures. A
// replay cut short has no census statistics of its own for the prefix
// it measured, so its partial report holds only the reuse figures over
// that prefix (the caller adds the run accounting).
func (r *replay) Collect(_ *program.Image, name string) *Report {
	var rep Report
	repeated := r.rec.repeated
	if r.n == r.rec.n {
		rep = *r.rec.rep
	} else {
		rep.Benchmark = name
		repeated = r.rec.repeatedBefore(r.n)
	}
	rep.ReusePctAll = r.buf.HitPercent()
	rep.ReusePctRepeated = 0
	if repeated > 0 {
		rep.ReusePctRepeated = 100 * float64(r.buf.HitsRepeated()) / float64(repeated)
	}
	return &rep
}

func (r *replay) describe(rm *obs.RunMetrics) { rm.ExecPath = obs.ExecReplay }
