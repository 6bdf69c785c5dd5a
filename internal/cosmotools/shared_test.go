package cosmotools

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nbody"
)

// runDeck runs cfg over an 8^3 simulation for steps steps, writing into
// dir ("" writes nothing), and returns the closed pipeline.
func runDeck(t *testing.T, cfg *Config, steps int, dir string) *Pipeline {
	t.Helper()
	simCfg := nbody.DefaultConfig(8)
	p, err := NewPipeline(cfg, simCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, steps); err != nil {
		t.Fatal(err)
	}
	return p
}

// dueSteps counts the distinct steps at which the pipeline ran anything.
func dueSteps(p *Pipeline) int {
	steps := map[int]bool{}
	for _, r := range p.Results {
		steps[r.Step] = true
	}
	return len(steps)
}

// invocation is a result without its elapsed time, keyed by tool and step.
type invocation struct {
	analysis string
	step     int
}

func resultsOf(p *Pipeline, analysis string) map[invocation]Result {
	out := map[invocation]Result{}
	for _, r := range p.Results {
		if analysis == "" || r.Analysis == analysis {
			r.Elapsed = 0
			out[invocation{r.Analysis, r.Step}] = r
		}
	}
	return out
}

// [tess] and [voids] with the same session config read one tessellation
// per due step: the pipeline opens one session and steps it once per due
// step, not once per tool.
func TestOneTessellationPerDueStep(t *testing.T) {
	for _, c := range []struct {
		deck  string
		steps int
	}{{defaultDeckPath, 40}, {toolsDeckPath, 10}} {
		p := runDeck(t, readDeck(t, c.deck), c.steps, "")
		if len(p.sessions) != 1 {
			t.Fatalf("%s: %d sessions, want 1", c.deck, len(p.sessions))
		}
		if got, want := p.sessions[0].Steps(), dueSteps(p); got != want || want != 2 {
			t.Errorf("%s: session stepped %d times over %d due steps", c.deck, got, want)
		}
	}
}

// [halo] and [tess] sites = halos with the same FOF values read one halo
// catalogue per due step; with other FOF values each has its own. Step 10
// comes before the first halo: tess reports it as 0 cells, without
// stepping its session, and the run goes on.
func TestHaloSitesShareFind(t *testing.T) {
	const tess = "[tess]\nevery = 10\nsites = halos\nlinking_length = 0.4\nmin_members = 5\nwrite = false\nblocks = 2\n"
	for _, c := range []struct {
		halo      string
		catalogue int
	}{
		{"[halo]\nevery = 10\nlinking_length = 0.4\nmin_members = 5\n", 1},
		{"[halo]\nevery = 10\nlinking_length = 0.3\nmin_members = 5\n", 2},
	} {
		simCfg := nbody.DefaultConfig(8)
		simCfg.G = 2 // cluster quickly so halos exist
		p, err := NewPipeline(parse(t, c.halo+tess), simCfg, "")
		if err != nil {
			t.Fatal(err)
		}
		sim, err := nbody.New(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		var meshed []int // the due steps tess had sites at
		for range 40 {
			sim.StepOnce()
			made := p.Step(sim, 40)
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
			if len(made) == 0 {
				continue
			}
			if len(made) != 2 || len(p.halos) != c.catalogue {
				t.Fatalf("step %d: %d results, %d halo catalogues, want 2 and %d",
					sim.Step, len(made), len(p.halos), c.catalogue)
			}
			if c.catalogue == 1 {
				for _, hs := range p.halos {
					if made[0].Metrics["halos"] != float64(len(hs)) {
						t.Errorf("step %d: [halo] found %v halos, the shared catalogue has %d",
							sim.Step, made[0].Metrics["halos"], len(hs))
					}
				}
			}
			if made[1].Metrics["cells"] > 0 {
				meshed = append(meshed, sim.Step)
			} else if sim.Step == 10 && made[1].Summary != "0 cells: no halos to tessellate" {
				t.Errorf("step 10: tess says %q", made[1].Summary)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(meshed, []int{20, 30, 40}) {
			t.Errorf("tess had sites at steps %v, want 20, 30 and 40", meshed)
		}
		if got := p.sessions[0].Steps(); got != len(meshed) {
			t.Errorf("session stepped %d times, want %d", got, len(meshed))
		}
	}
}

// Whichever of [tess] and [voids] comes first in the deck steps the shared
// session, and a due [tess] still writes its file: every result, the void
// tree and the tess files are those of the tess-first deck.
func TestDeckOrderDoesNotMatter(t *testing.T) {
	tessFirst := readDeck(t, toolsDeckPath)
	voidsFirst := readDeck(t, toolsDeckPath)
	s := voidsFirst.Sections
	ti := slices.IndexFunc(s, func(sec Section) bool { return sec.Name == "tess" })
	vi := slices.IndexFunc(s, func(sec Section) bool { return sec.Name == "voids" })
	if ti < 0 || vi < ti {
		t.Fatalf("%s: want [tess] before [voids]", toolsDeckPath)
	}
	voids := s[vi]
	copy(s[ti+1:vi+1], s[ti:vi])
	s[ti] = voids

	dirA, dirB := t.TempDir(), t.TempDir()
	a := runDeck(t, tessFirst, 10, dirA)
	b := runDeck(t, voidsFirst, 10, dirB)
	if b.names[0] != "voids" || len(b.sessions) != 1 {
		t.Fatalf("voids-first deck: tools %v, %d sessions", b.names, len(b.sessions))
	}
	if !reflect.DeepEqual(resultsOf(a, ""), resultsOf(b, "")) {
		t.Errorf("results differ:\ntess first:  %v\nvoids first: %v", resultsOf(a, ""), resultsOf(b, ""))
	}
	treeA, err := a.VoidTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := b.VoidTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(treeA, treeB) {
		t.Error("void trees differ")
	}
	for _, name := range []string{"tess-step-0005.out", "tess-step-0010.out"} {
		if sumA, sumB := fileSum(t, filepath.Join(dirA, name)), fileSum(t, filepath.Join(dirB, name)); sumA != sumB {
			t.Errorf("%s: SHA-256 %x (tess first) != %x (voids first)", name, sumA, sumB)
		}
	}
}

func fileSum(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// A [tess] whose session config differs from [voids]' gets a session of
// its own, and [voids] reads what it would read alone.
func TestDistinctConfigsDoNotShare(t *testing.T) {
	for _, c := range []struct{ tess, voids string }{
		{"[tess]\nevery = 5\nmin_volume = 0.5\n", "[voids]\nevery = 5\n"},
		{"[tess]\nevery = 5\nblocks = 8\n", "[voids]\nevery = 5\nblocks = 2\n"},
	} {
		both := runDeck(t, parse(t, c.tess+c.voids), 10, "")
		alone := runDeck(t, parse(t, c.voids), 10, "")
		if len(both.sessions) != 2 {
			t.Errorf("%q: %d sessions, want 2", c.tess, len(both.sessions))
		}
		for _, s := range both.sessions {
			if s.Steps() != 2 {
				t.Errorf("%q: a session stepped %d times, want 2", c.tess, s.Steps())
			}
		}
		if got, want := resultsOf(both, "voids"), resultsOf(alone, "voids"); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: voids results %v, alone %v", c.tess, got, want)
		}
	}
}
