package experiments

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/compile"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// specDigest is everything a spec watch must leave untouched: pipeline
// statistics, the committed-stream digests, predictor and cache state, and
// how many instructions the front end fetched by superblock replay.
type specDigest struct {
	Stats              pipeline.Stats
	Commit, Mem, BP    uint64
	IL1, DL1, L2       uint64
	IL1S, DL1S, L2S    cache.Stats
	Replays, LegacyOps uint64
}

func digestOf(c *pipeline.Core) specDigest {
	return specDigest{
		Stats:  c.Stats,
		Commit: c.CommitDigest(), Mem: c.MemDigest(), BP: c.BP.Digest(),
		IL1: c.Hier.IL1.Digest(), DL1: c.Hier.DL1.Digest(), L2: c.Hier.L2.Digest(),
		IL1S: c.Hier.IL1.Stats, DL1S: c.Hier.DL1.Stats, L2S: c.Hier.L2.Stats,
		Replays: c.SBStats.Replays, LegacyOps: c.SBStats.LegacyOps,
	}
}

// checkArmedInert compares an armed run against its disarmed twin: every
// observable must match, the armed core must have fetched by replay alone
// (the watch no longer diverts fetch onto the legacy walk), and the watch
// must actually have fired.
func checkArmedInert(t *testing.T, off, on specDigest, events uint64) {
	t.Helper()
	if on != off {
		t.Errorf("run differs with the spec watch armed:\ndisarmed: %+v\narmed:    %+v", off, on)
	}
	if on.LegacyOps != 0 || on.Replays == 0 {
		t.Errorf("armed core fetched %d ops on the legacy walk and %d by replay; want 0 and > 0", on.LegacyOps, on.Replays)
	}
	if events == 0 {
		t.Error("spec watch armed but no events fired")
	}
}

// TestSpecTraceDifferential is the spec-window observability inertness gate.
// Every workload kernel at W=1,2 in the Plain, SeMPE and CTE builds runs
// with a spec watch armed on its own core and without; a pooled prototype
// core then runs two programs back to back across Reset, armed and not.
// Statistics, digests, cache state and replay counts must be identical,
// which proves the emission points on the replay fetch path are pure
// observers; the attack lab's traced trials are pinned the same way by
// TestTraceTrialMatchesUntraced (internal/attack).
func TestSpecTraceDifferential(t *testing.T) {
	// The three binaries of a Fig. 10 point: the baseline and SeMPE builds
	// of the structured harness, and the constant-time harness.
	builds := []struct {
		name    string
		harness func(workloads.HarnessSpec) *lang.Program
		mode    compile.Mode
		cfg     pipeline.Config
	}{
		{"plain", workloads.Harness, compile.Plain, pipeline.DefaultConfig()},
		{"sempe", workloads.Harness, compile.SeMPE, pipeline.SecureConfig()},
		{"cte", workloads.HarnessCT, compile.Plain, pipeline.DefaultConfig()},
	}
	progs := map[string]*isa.Program{}
	for _, kind := range workloads.All() {
		for _, w := range []int{1, 2} {
			for _, b := range builds {
				name := fmt.Sprintf("%v/W=%d/%s", kind, w, b.name)
				hs := workloads.HarnessSpec{Kind: kind, W: w, I: 1, Secret: 1}
				out, err := compile.Compile(b.harness(hs), b.mode)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				progs[name] = out.Prog
				t.Run(name, func(t *testing.T) {
					run := func(armed bool) (specDigest, uint64) {
						core := pipeline.New(b.cfg, out.Prog)
						var events uint64
						if armed {
							core.SetSpecWatch(func(pipeline.SpecEvent) { events++ })
						}
						if err := core.Run(); err != nil {
							t.Fatal(err)
						}
						return digestOf(core), events
					}
					off, _ := run(false)
					on, events := run(true)
					checkArmedInert(t, off, on, events)
				})
			}
		}
	}

	// A pooled core armed once keeps its watch across Reset onto a second
	// program, and its shared-decode-table spin-up must be just as inert.
	t.Run("pooled", func(t *testing.T) {
		first, second := progs["quicksort/W=2/plain"], progs["queens/W=1/plain"]
		if first == nil || second == nil {
			t.Fatal("pooled case programs missing from the kernel grid")
		}
		run := func(armed bool) ([2]specDigest, uint64) {
			proto := pipeline.NewPrototype(pipeline.DefaultConfig(), first)
			core := pipeline.NewFromPrototype(proto)
			var events uint64
			if armed {
				core.SetSpecWatch(func(pipeline.SpecEvent) { events++ })
			}
			var out [2]specDigest
			for i, prog := range []*isa.Program{first, second} {
				if i > 0 {
					core.Reset(prog)
				}
				if err := core.Run(); err != nil {
					t.Fatal(err)
				}
				out[i] = digestOf(core)
			}
			proto.Recycle(core)
			return out, events
		}
		off, _ := run(false)
		on, events := run(true)
		for i := range off {
			checkArmedInert(t, off[i], on[i], events)
		}
	})
}

// TestSteadyStateZeroAllocSpecDisarmed guards the other half of the
// allocation contract: with the spec-trace metric families registered (this
// package's imports pull in internal/attack's obs registrations) but every
// tracer disarmed, the fetch-to-commit loop must stay at 0 allocs/op — the
// spec hooks may only cost nil checks on the hot path.
func TestSteadyStateZeroAllocSpecDisarmed(t *testing.T) {
	spec := workloads.HarnessSpec{Kind: workloads.Quicksort, W: 2, I: 1 << 20}
	out, err := compile.Compile(workloads.Harness(spec), compile.Plain)
	if err != nil {
		t.Fatal(err)
	}
	core := pipeline.New(pipeline.DefaultConfig(), out.Prog)
	if core.SpecWatchArmed() {
		t.Fatal("spec watch armed on a fresh core")
	}
	for i := 0; i < 10_000; i++ {
		if err := core.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}

	// The spec families must be registered and scrapeable before measuring.
	var text strings.Builder
	if err := obs.Default().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "sempe_spec_wrong_path_fetches_total") {
		t.Fatal("spec metric families not registered on the default registry")
	}

	var stepErr error
	allocs := testing.AllocsPerRun(100, func() {
		if core.Halted() {
			stepErr = io.ErrUnexpectedEOF
			return
		}
		if err := core.StepCycle(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state StepCycle with tracer families registered but disarmed: %.1f allocs/op, want 0", allocs)
	}
}
