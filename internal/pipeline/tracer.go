package pipeline

import (
	"fmt"
	"io"
	"sort"
)

// Tracer is a bounded ring-buffer recorder for SpecEvents. Arm it with
// Core.SetSpecWatch(t.Record): every speculative-window event is stored in a
// preallocated ring (oldest events drop when the ring wraps), and the
// committed/squashed disposition of each per-uop event is stamped in place
// when the covering SpecCommit or SpecFlush arrives — so a finished trace
// reads like a post-mortem: every retained event knows how it resolved.
//
// Record is allocation-free: the ring and the pending-resolution window are
// sized at construction and never grow. A Tracer serves one core and is not
// safe for concurrent use.
type Tracer struct {
	ring  []SpecEvent
	total uint64 // absolute count of events recorded

	byKind  [specKindCount]uint64
	squashK [specKindCount]uint64 // retained-at-resolution squashed events, by kind

	// Disposition back-patching. Per-uop events register in a window of
	// pending slots keyed by seq; SpecCommit resolves its own seq and
	// SpecFlush resolves every registered seq above its own. The window is
	// sized past the maximum number of in-flight sequence numbers (ROB +
	// front-end buffers), so a slot is never reused before its op resolves.
	pend   []pendSlot
	maxSeq uint64 // highest seq registered so far
}

type pendSlot struct {
	seq uint64
	n   uint8
	idx [8]uint64 // absolute ring indices of this seq's events
}

// specPendWindow bounds in-flight sequence numbers: ROB (192) + fetch/decode
// buffers (32) with generous slack. Power of two for cheap modulo.
const specPendWindow = 512

// NewTracer builds a tracer retaining the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		ring: make([]SpecEvent, capacity),
		pend: make([]pendSlot, specPendWindow),
	}
}

// Record stores one event and performs disposition resolution. Pass it to
// Core.SetSpecWatch.
func (t *Tracer) Record(ev SpecEvent) {
	switch ev.Kind {
	case SpecCommit:
		t.resolve(ev.Seq, DispCommitted)
	case SpecFlush:
		ev.Disp = DispCommitted // the flush itself is an architectural fact
		// Everything younger than the flushing op is squashed. Seq numbers
		// are dense and machine-ordered, so the scan is bounded by the
		// in-flight window.
		for s := ev.Seq + 1; s <= t.maxSeq; s++ {
			t.resolve(s, DispSquashed)
		}
	}
	pos := t.total % uint64(len(t.ring))
	t.ring[pos] = ev
	t.byKind[ev.Kind]++
	abs := t.total
	t.total++
	if ev.Disp == DispSpeculative && perUopKind(ev.Kind) {
		slot := &t.pend[ev.Seq%specPendWindow]
		if slot.seq != ev.Seq || slot.n == 0 {
			slot.seq, slot.n = ev.Seq, 0
		}
		if int(slot.n) < len(slot.idx) {
			slot.idx[slot.n] = abs
			slot.n++
		}
		if ev.Seq > t.maxSeq {
			t.maxSeq = ev.Seq
		}
	}
}

// perUopKind reports whether a kind's events are emitted speculatively and
// resolved later (as opposed to SpecBPUpdate/SpecCommit, which are commit
// facts, and SpecFlush, a machine-level event).
func perUopKind(k SpecKind) bool {
	switch k {
	case SpecFetch, SpecBPLookup, SpecIssue, SpecBranchExec, SpecMemExec,
		SpecCacheFill, SpecCacheEvict:
		return true
	}
	return false
}

func (t *Tracer) resolve(seq uint64, disp SpecDisp) {
	slot := &t.pend[seq%specPendWindow]
	if slot.seq != seq || slot.n == 0 {
		return
	}
	capR := uint64(len(t.ring))
	for i := 0; i < int(slot.n); i++ {
		abs := slot.idx[i]
		if t.total-abs <= capR { // still retained in the ring
			ev := &t.ring[abs%capR]
			ev.Disp = disp
			if disp == DispSquashed {
				t.squashK[ev.Kind]++
			}
		}
	}
	slot.n = 0
}

// Total returns how many events were recorded (including dropped ones).
func (t *Tracer) Total() uint64 { return t.total }

// Dropped returns how many events fell off the ring.
func (t *Tracer) Dropped() uint64 {
	if t.total > uint64(len(t.ring)) {
		return t.total - uint64(len(t.ring))
	}
	return 0
}

// Events returns the retained events in recording order (a copy).
func (t *Tracer) Events() []SpecEvent {
	n := t.total
	capR := uint64(len(t.ring))
	if n > capR {
		n = capR
	}
	out := make([]SpecEvent, 0, n)
	start := t.total - n
	for abs := start; abs < t.total; abs++ {
		out = append(out, t.ring[abs%capR])
	}
	return out
}

// KindCounts returns the per-kind totals over all recorded events.
func (t *Tracer) KindCounts() map[string]uint64 {
	m := make(map[string]uint64, specKindCount)
	for k := SpecKind(0); k < specKindCount; k++ {
		if t.byKind[k] > 0 {
			m[k.String()] = t.byKind[k]
		}
	}
	return m
}

// SquashedCounts returns, per kind, how many retained events resolved to
// DispSquashed — the wrong-path activity profile of the run.
func (t *Tracer) SquashedCounts() map[string]uint64 {
	m := make(map[string]uint64)
	for k := SpecKind(0); k < specKindCount; k++ {
		if t.squashK[k] > 0 {
			m[k.String()] = t.squashK[k]
		}
	}
	return m
}

// WriteText renders the retained events as a cycle-ordered timeline, one
// event per line, with a trailing per-kind summary.
func (t *Tracer) WriteText(w io.Writer) error {
	events := t.Events()
	if _, err := fmt.Fprintf(w, "# spec trace: %d events recorded, %d retained, %d dropped\n",
		t.Total(), len(events), t.Dropped()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s %8s  %-11s %-11s %-18s %s\n",
		"cycle", "seq", "disp", "kind", "pc", "detail"); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		if _, err := fmt.Fprintf(w, "%10d %8d  %-11s %-11s %#-18x %s\n",
			ev.Cycle, ev.Seq, ev.Disp, ev.Kind, ev.PC, specDetail(ev)); err != nil {
			return err
		}
	}
	keys := make([]string, 0, specKindCount)
	counts := t.KindCounts()
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "# %-11s %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// specDetail renders the kind-specific fields of one event.
func specDetail(ev *SpecEvent) string {
	switch ev.Kind {
	case SpecFetch, SpecBPLookup:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		if ev.Addr != 0 {
			return fmt.Sprintf("pred=%s target=%#x", dir, ev.Addr)
		}
		return "pred=" + dir
	case SpecBranchExec:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		if ev.Mispredict {
			return fmt.Sprintf("%s target=%#x MISPREDICT", dir, ev.Addr)
		}
		return fmt.Sprintf("%s target=%#x", dir, ev.Addr)
	case SpecMemExec:
		if ev.Write {
			return fmt.Sprintf("store addr=%#x", ev.Addr)
		}
		return fmt.Sprintf("load addr=%#x lat=%d", ev.Addr, ev.Lat)
	case SpecCacheFill:
		return fmt.Sprintf("%s fill line=%#x", SpecLevelName(ev.Level), ev.Addr)
	case SpecCacheEvict:
		return fmt.Sprintf("%s evict line=%#x", SpecLevelName(ev.Level), ev.Addr)
	case SpecBPUpdate:
		dir := "nt"
		if ev.Taken {
			dir = "taken"
		}
		return fmt.Sprintf("train %s target=%#x", dir, ev.Addr)
	case SpecFlush:
		return fmt.Sprintf("cause=%s target=%#x squashed=%d dropped=%d",
			ev.Cause, ev.Addr, ev.SquashedROB, ev.DroppedFE)
	default:
		return ""
	}
}

// WriteChromeJSON renders the retained events in Chrome's trace_event JSON
// array format (load in chrome://tracing or Perfetto; 1 cycle = 1 µs).
// Events are instant events on one process, with a thread per kind so the
// viewer groups fetch/execute/cache/flush activity into separate rows.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			`  {"name":%q,"ph":"i","s":"t","ts":%d,"pid":1,"tid":%d,`+
				`"args":{"seq":%d,"pc":"%#x","disp":%q,"detail":%q}}%s`+"\n",
			ev.Kind.String(), ev.Cycle, int(ev.Kind)+1,
			ev.Seq, ev.PC, ev.Disp.String(), specDetail(ev), sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
