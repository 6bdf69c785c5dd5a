package cosmotools

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nbody"
)

func parse(t *testing.T, deck string) *Config {
	t.Helper()
	cfg, err := ParseConfig(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseConfigBasic(t *testing.T) {
	cfg := parse(t, `
# a deck
[tess]
every = 5
ghost = 4

[halo]
linking_length = 0.25
`)
	if len(cfg.Sections) != 2 {
		t.Fatalf("sections = %d", len(cfg.Sections))
	}
	if cfg.Sections[0].Name != "tess" || cfg.Sections[0].Params["every"] != "5" {
		t.Errorf("section 0: %+v", cfg.Sections[0])
	}
	if cfg.Sections[1].Params["linking_length"] != "0.25" {
		t.Errorf("section 1: %+v", cfg.Sections[1])
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		"[tess\nevery = 5",    // malformed section
		"[]\n",                // empty name
		"[a]\n[a]\n",          // duplicate section
		"every = 5\n",         // key outside section
		"[a]\nnot a pair\n",   // missing '='
		"[a]\n = 5\n",         // empty key
		"[a]\nx = 1\nx = 2\n", // duplicate key
	}
	for _, deck := range cases {
		if _, err := ParseConfig(strings.NewReader(deck)); err == nil {
			t.Errorf("deck %q accepted", deck)
		}
	}
}

func TestSectionTypedAccessors(t *testing.T) {
	cfg := parse(t, "[a]\nf = 2.5\ni = 7\nb = true\nbad = xyz\n")
	reader := func() *params { return &params{s: &cfg.Sections[0], read: map[string]bool{}} }
	p := reader()
	if v := p.float("f", 0); v != 2.5 {
		t.Errorf("float = %v", v)
	}
	if v := p.float("missing", 9); v != 9 {
		t.Errorf("float default = %v", v)
	}
	if v := p.int("i", 0); v != 7 {
		t.Errorf("int = %v", v)
	}
	if v := p.bool("b", false); !v {
		t.Errorf("bool = %v", v)
	}
	// Every key but "bad" was asked for, and every value parsed.
	if err := p.done(); err == nil || err.Error() != "cosmotools: [a] has unknown keys [bad]" {
		t.Errorf("done = %v, want the unknown key", err)
	}
	for _, c := range []struct {
		kind string
		read func(*params)
		want string
	}{
		{"float", func(p *params) { p.float("bad", 0) }, `cosmotools: [a] bad: strconv.ParseFloat: parsing "xyz": invalid syntax`},
		{"int", func(p *params) { p.int("bad", 0) }, `cosmotools: [a] bad: strconv.Atoi: parsing "xyz": invalid syntax`},
		{"bool", func(p *params) { p.bool("bad", false) }, `cosmotools: [a] bad: strconv.ParseBool: parsing "xyz": invalid syntax`},
		{"oneOf", func(p *params) { p.oneOf("bad", "abc", "def") }, `cosmotools: [a] bad must be abc or def, got "xyz"`},
	} {
		p := reader()
		c.read(p)
		// The bad value wins over the keys this reader never asked for.
		if err := p.done(); err == nil || err.Error() != c.want {
			t.Errorf("bad %s: done = %v, want %s", c.kind, err, c.want)
		}
	}
}

func TestNewPipelineValidation(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	if _, err := NewPipeline(parse(t, "[nope]\n"), simCfg, ""); err == nil {
		t.Error("unknown analysis accepted")
	}
	if _, err := NewPipeline(&Config{}, simCfg, ""); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewPipeline(parse(t, "[tess]\ntypo = 1\n"), simCfg, ""); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := NewPipeline(parse(t, "[halo]\nevery = zzz\n"), simCfg, ""); err == nil {
		t.Error("bad int accepted")
	}
}

func TestKnownAnalyses(t *testing.T) {
	known := KnownAnalyses()
	want := []string{"correlation", "halo", "multistream", "powerspec", "tess", "voids"}
	if len(known) != len(want) {
		t.Fatalf("known = %v", known)
	}
	for i := range want {
		if known[i] != want[i] {
			t.Errorf("known[%d] = %s, want %s", i, known[i], want[i])
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	deck := `
[tess]
every = 5
blocks = 4
write = true

[halo]
every = 5
linking_length = 0.3
min_members = 5

[multistream]
every = 10
grid = 16

[powerspec]
every = 10
bins = 4

[voids]
every = 5
blocks = 4
`
	simCfg := nbody.DefaultConfig(8)
	p, err := NewPipeline(parse(t, deck), simCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 10); err != nil {
		t.Fatal(err)
	}

	// tess, halo, voids run at steps 5 and 10; multistream and powerspec
	// at 10 only.
	counts := map[string]int{}
	for _, r := range p.Results {
		counts[r.Analysis]++
		if r.Elapsed <= 0 {
			t.Errorf("%s: elapsed not recorded", r.Analysis)
		}
		if r.Summary == "" {
			t.Errorf("%s: empty summary", r.Analysis)
		}
	}
	want := map[string]int{"tess": 2, "halo": 2, "voids": 2, "multistream": 1, "powerspec": 1}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s ran %d times, want %d (all: %v)", name, counts[name], n, counts)
		}
	}

	// tess wrote its files.
	if _, err := os.Stat(filepath.Join(dir, "tess-step-0005.out")); err != nil {
		t.Errorf("missing tess output at step 5: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tess-step-0010.out")); err != nil {
		t.Errorf("missing tess output at step 10: %v", err)
	}

	// Metrics are populated and sane.
	if first := p.Results[0]; first.Analysis != "tess" || first.Metrics["cells"] != 512 {
		t.Errorf("first result = %+v, want tess with 512 cells", first)
	}

	// The void feature tree spans both snapshots.
	tree, err := p.VoidTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Snapshots) != 2 {
		t.Fatalf("void tree snapshots = %d", len(tree.Snapshots))
	}
	if len(tree.Links) != 1 {
		t.Fatalf("void tree link sets = %d", len(tree.Links))
	}
	if _, err := tree.EventsAt(0); err != nil {
		t.Fatal(err)
	}
}

func TestVoidTreeRequiresVoidsAnalysis(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	p, err := NewPipeline(parse(t, "[halo]\n"), simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.VoidTree(0.5); err == nil {
		t.Error("VoidTree without voids analysis accepted")
	}
}

func TestHookFinalStepAlwaysRuns(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	p, err := NewPipeline(parse(t, "[halo]\nevery = 100\n"), simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 3); err != nil {
		t.Fatal(err)
	}
	if len(p.Results) != 1 || p.Results[0].Step != 3 {
		t.Errorf("final-step invocation missing: %+v", p.Results)
	}
}

func TestHaloTree(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	// Stronger coupling so halos exist in a short test run.
	simCfg.G = 2
	p, err := NewPipeline(parse(t, "[halo]\nevery = 10\nlinking_length = 0.4\nmin_members = 5\n"), simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 20); err != nil {
		t.Fatal(err)
	}
	tree, err := p.HaloTree(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Snapshots) != 2 {
		t.Fatalf("halo tree snapshots = %d", len(tree.Snapshots))
	}
	if _, err := tree.EventsAt(0); err != nil {
		t.Fatal(err)
	}
}

func TestHaloTreeRequiresHaloAnalysis(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	p, err := NewPipeline(parse(t, "[powerspec]\n"), simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.HaloTree(0.5); err == nil {
		t.Error("HaloTree without halo analysis accepted")
	}
}

func TestTessWithHaloSites(t *testing.T) {
	// The paper's Sec. V suggestion: reconstruct with halos as Voronoi
	// sites instead of the tracer particles.
	simCfg := nbody.DefaultConfig(8)
	simCfg.G = 2 // cluster quickly so halos exist
	deck := "[tess]\nevery = 20\nsites = halos\nlinking_length = 0.4\nmin_members = 5\nwrite = false\nblocks = 2\n"
	p, err := NewPipeline(parse(t, deck), simCfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(simCfg, 20); err != nil {
		t.Fatal(err)
	}
	res := p.Results
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	// Far fewer cells than particles: one per halo.
	if res[0].Metrics["cells"] >= 512 || res[0].Metrics["cells"] < 1 {
		t.Errorf("halo-site tessellation has %v cells", res[0].Metrics["cells"])
	}
}

func TestTessSitesValidation(t *testing.T) {
	simCfg := nbody.DefaultConfig(8)
	if _, err := NewPipeline(parse(t, "[tess]\nsites = galaxies\n"), simCfg, ""); err == nil {
		t.Error("bad sites value accepted")
	}
}
