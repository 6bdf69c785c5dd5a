package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
)

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// End-to-end acceptance: a 2-rank run with -trace must emit valid Chrome
// trace JSON with exchange/compute/output spans on both rank threads, and
// the per-rank comm byte counters must sum to the same totals an
// independent instrumented run of the identical configuration reduces to.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	meshPath := filepath.Join(dir, "mesh.bin")
	var buf bytes.Buffer
	err := run([]string{
		"-n", "6", "-blocks", "2", "-seed", "9",
		"-o", meshPath, "-trace", tracePath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "comm:") {
		t.Errorf("summary missing comm line:\n%s", buf.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	spans := map[int]map[string]bool{0: {}, 1: {}}
	sentByRank := map[int]float64{}
	recvdByRank := map[int]float64{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Tid != 0 && ev.Tid != 1 {
				t.Errorf("span on unexpected tid %d", ev.Tid)
				continue
			}
			if ev.Dur <= 0 {
				t.Errorf("span %q on tid %d has non-positive duration", ev.Name, ev.Tid)
			}
			spans[ev.Tid][ev.Name] = true
		case "C":
			if ev.Name == "comm-bytes" {
				sentByRank[ev.Tid], _ = ev.Args["sent"].(float64)
				recvdByRank[ev.Tid], _ = ev.Args["recvd"].(float64)
			}
		}
	}
	for tid := 0; tid <= 1; tid++ {
		for _, want := range []string{"exchange", "ghost-merge", "compute", "output"} {
			if !spans[tid][want] {
				t.Errorf("rank %d: no %q span in trace", tid, want)
			}
		}
	}

	// Independent run of the identical configuration: message and byte
	// counts are deterministic, so the trace counters must agree with the
	// reduced totals of the fresh snapshot.
	cfg := tess.NewPeriodicConfig(8)
	cfg.GhostSize = 3
	cfg.Recorder = tess.NewRecorder(2)
	out, err := tess.Run(cfg, latticeParticles(6, 8, 0.6, 9), 2, tess.WithOutputPath(filepath.Join(dir, "mesh2.bin")))
	if err != nil {
		t.Fatal(err)
	}
	var traceSent, traceRecvd int64
	for tid := 0; tid <= 1; tid++ {
		traceSent += int64(sentByRank[tid])
		traceRecvd += int64(recvdByRank[tid])
	}
	if traceSent != out.Obs.TotalSentBytes {
		t.Errorf("trace sent bytes %d, independent run reduced %d", traceSent, out.Obs.TotalSentBytes)
	}
	if traceRecvd != out.Obs.TotalRecvdBytes {
		t.Errorf("trace recvd bytes %d, independent run reduced %d", traceRecvd, out.Obs.TotalRecvdBytes)
	}
	if traceSent == 0 {
		t.Error("trace recorded zero comm bytes")
	}
}

// The canonical merge flag must write a decodable mesh with one cell per
// particle, identical across block counts.
func TestRunCanonicalExport(t *testing.T) {
	dir := t.TempDir()
	var enc [][]byte
	for _, blocks := range []string{"1", "4"} {
		p := filepath.Join(dir, "canon"+blocks+".bin")
		var buf bytes.Buffer
		if err := run([]string{"-n", "5", "-blocks", blocks, "-seed", "3", "-canonical", p}, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, data)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Error("canonical meshes differ between 1-block and 4-block runs")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "0"}, &buf); err == nil {
		t.Error("n=0 accepted")
	}
}

var (
	elapsedMS = regexp.MustCompile(` +[0-9]+\.[0-9]ms  `)
	demoPath  = regexp.MustCompile(`from \S+demo\.tess`)
)

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// Every verb's stdout at pinned tiny sizes must be byte-identical to what
// the single-purpose binary it replaced printed (testdata/*.txt were
// produced by cmd/cellhist, voidfind, tessinfo, accuracy, render, sim and
// cosmotools at the commit before they were folded in; temp paths are
// masked as $TMP and the elapsed-ms column of tools as ~ms; tools.txt has
// since gained the deck's own section list on line 1 and the correlation
// tool's two lines), and the files it writes must hash the same.
func TestVerbsMatchParentBinaries(t *testing.T) {
	dir := t.TempDir()
	// Where a verb makes its own temp files; must be empty afterwards.
	scratch := filepath.Join(dir, "scratch")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", scratch)
	in := filepath.Join(dir, "mesh.tess")
	if err := dispatch([]string{"run", "-o", in}, io.Discard); err != nil {
		t.Fatal(err)
	}
	tmp := func(name string) string { return filepath.Join(dir, name) }

	cases := []struct {
		golden string
		args   []string
		files  map[string]string // written file -> SHA-256 at the parent
	}{
		{"hist_volume", []string{"hist", "-mode", "volume", "-ng", "8", "-steps", "10", "-bins", "20", "-blocks", "8"}, nil},
		{"hist_delta", []string{"hist", "-mode", "delta", "-ng", "8", "-steps", "10", "-at", "5,10", "-bins", "20", "-blocks", "8"}, nil},
		{"voids_demo", []string{"voids", "-ng", "8", "-steps", "10"}, nil},
		{"voids_in", []string{"voids", "-in", in, "-minvol", "1.05", "-top", "3"}, nil},
		{"voids_sweep", []string{"voids", "-in", in, "-sweep", "0,0.5,0.75,1.0"}, nil},
		{"info", []string{"info", in}, nil},
		{"info_blocks", []string{"info", "-blocks", "-stats=false", in}, nil},
		{"accuracy", []string{"accuracy", "-ng", "8", "-steps", "10", "-ghosts", "0,1,2", "-blocks", "2,4"}, nil},
		{"render_sim", []string{"render", "-ng", "8", "-steps", "10", "-px", "32", "-marks", "-o", tmp("sim.png")},
			map[string]string{"sim.png": "bc9c8d9259960403760a5e4d823c096a58118765d743007f260dcbdce473c467"}},
		{"render_in", []string{"render", "-in", in, "-px", "32", "-z", "2.5", "-linear", "-o", tmp("in.png")},
			map[string]string{"in.png": "a6941b269aa4ae295393e37a0cd0d02ec1c469ed610872c5da63e287bd153065"}},
		{"render_dtfe", []string{"render", "-ng", "8", "-steps", "10", "-px", "32", "-field", "dtfe", "-o", tmp("dtfe.png")},
			map[string]string{"dtfe.png": "e4b9a3e7de6c638626cf9f7abc91c9bf2953ee3529cfaf85861f91276c31da9d"}},
		{"render_streams", []string{"render", "-ng", "8", "-steps", "10", "-px", "32", "-field", "streams", "-o", tmp("streams.png")},
			map[string]string{"streams.png": "82642c1adc068d5540a4d387369aee9571cbdafb8ae292d42592453dc5c9bf9c"}},
		{"sim", []string{"sim", "-ng", "8", "-steps", "10", "-every", "5", "-seed", "3",
			"-snap-dir", tmp("snaps"), "-vtk", tmp("final.vtk"), "-augment", tmp("final.aug")},
			map[string]string{
				"final.vtk":           "20b1496ff4a2a14b18ce4ec066a2ff7ac18ec078b84fe8e581141c89e963f1eb",
				"final.aug":           "45ffa3a7d7f19292397b42a14ee9e3b198b2b0758abbcc82e3784a0f5b09f32a",
				"snaps/snap-0005.txt": "15c70545aed8735a61eaf592ce72cb98aa8c740e4942f04d69dc306966a1e6d5",
				"snaps/snap-0010.txt": "a5ec1793ba6cf0f0732591e98d4fe36d02759cd4028c38542f4556003b3c7c68",
			}},
		{"tools", []string{"tools", "-config", "testdata/tools.cfg", "-ng", "8", "-steps", "10", "-voidtree"}, nil},
		{"tools_print_config", []string{"tools", "-print-config"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var buf bytes.Buffer
			if err := dispatch(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			got := demoPath.ReplaceAllString(buf.String(), "from $$TMP/demo.tess")
			got = strings.ReplaceAll(got, dir, "$TMP")
			got = elapsedMS.ReplaceAllString(got, " ~ms  ")
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from the parent binary's\n--- got\n%s--- want\n%s", got, want)
			}
			for _, name := range slices.Sorted(maps.Keys(tc.files)) {
				if d := fileDigest(t, tmp(name)); d != tc.files[name] {
					t.Errorf("%s: SHA-256 %s, parent binary wrote %s", name, d, tc.files[name])
				}
			}
			left, err := os.ReadDir(scratch)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("left %s behind in the temp directory", e.Name())
			}
		})
	}
}

// A deck's typos are reported by the section reader before anything runs:
// a key no tool asked for, and a value that does not parse.
func TestToolsRejectsBadDeck(t *testing.T) {
	for _, tc := range []struct{ deck, want string }{
		{"[halo]\nlinkng_length = 0.2\n", `cosmotools: [halo] has unknown keys [linkng_length]`},
		{"[halo]\nevery = zzz\n", `cosmotools: [halo] every: strconv.Atoi: parsing "zzz": invalid syntax`},
	} {
		path := filepath.Join(t.TempDir(), "deck.cfg")
		if err := os.WriteFile(path, []byte(tc.deck), 0o644); err != nil {
			t.Fatal(err)
		}
		err := dispatch([]string{"tools", "-config", path, "-ng", "8", "-steps", "1"}, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("deck %q: err = %v, want %s", tc.deck, err, tc.want)
		}
	}
}

// A tess file whose every cell was culled has no mean volume to default
// the threshold to; the verb must say "0 cells", not print 0/0.
func TestVoidsVerbZeroCells(t *testing.T) {
	cfg := tess.NewPeriodicConfig(4)
	cfg.GhostSize = 2
	cfg.MinVolume = 1e9
	path := filepath.Join(t.TempDir(), "empty.tess")
	var ps []tess.Particle
	for i := 0; i < 64; i++ {
		ps = append(ps, tess.Particle{ID: int64(i),
			Pos: tess.Vec3{X: float64(i%4) + 0.5, Y: float64(i/4%4) + 0.4, Z: float64(i/16) + 0.3}})
	}
	if _, err := tess.Run(cfg, ps, 2, tess.WithOutputPath(path)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dispatch([]string{"voids", "-in", path}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"read 0 cells from",
		"threshold defaulted to mean cell volume 0.000\n",
		"0 cells survive threshold 0.000, forming 0 components\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, buf.String())
		}
	}
}

// A missing verb means run: every invocation documented before the verbs
// existed keeps working. Timings (and the imbalance ratios derived from
// them) differ run to run; everything else must not.
func TestMissingVerbMeansRun(t *testing.T) {
	timed := regexp.MustCompile(`(?m)^(timing|balance):.*\n|  imbalance .*$`)
	var bare, verb bytes.Buffer
	if err := dispatch([]string{"-n", "4"}, &bare); err != nil {
		t.Fatal(err)
	}
	if err := dispatch([]string{"run", "-n", "4"}, &verb); err != nil {
		t.Fatal(err)
	}
	a, b := timed.ReplaceAllString(bare.String(), ""), timed.ReplaceAllString(verb.String(), "")
	if a != b || !strings.Contains(a, "particles 64") || !strings.Contains(a, "comm: ") {
		t.Errorf("tess -n 4 and tess run -n 4 differ:\n%s---\n%s", a, b)
	}
	if err := dispatch(nil, io.Discard); err != nil {
		t.Errorf("bare tess: %v", err)
	}
	if err := dispatch([]string{"cellhist"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown verb") {
		t.Errorf("unknown verb: err = %v", err)
	}
}

// render -in takes the box from the blocks' extents, not from the largest
// site coordinate rounded up: at L = 7.5 the old guess was 8, and with
// sites stopping short of the last unit cell it was smaller than the box.
func TestRenderReadsBoxFromExtents(t *testing.T) {
	dir := t.TempDir()
	in, png := filepath.Join(dir, "mesh.tess"), filepath.Join(dir, "slice.png")
	if err := dispatch([]string{"run", "-n", "6", "-box", "7.5", "-ghost", "3", "-o", in}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dispatch([]string{"render", "-in", in, "-px", "16", "-o", png}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(box ~7.5)") || !strings.Contains(buf.String(), "slice z=3.75") {
		t.Errorf("render did not recover the 7.5 box:\n%s", buf.String())
	}

	// A non-cubic domain is an error, not a silently wrong picture.
	cfg := tess.NewBoundedConfig(tess.Box{Max: tess.Vec3{X: 8, Y: 8, Z: 4}})
	cfg.GhostSize = 2
	cfg.KeepIncomplete = true
	slab := filepath.Join(dir, "slab.tess")
	var ps []tess.Particle
	for _, p := range latticeParticles(4, 4, 0.6, 1) {
		p.Pos.X, p.Pos.Y = 2*p.Pos.X, 2*p.Pos.Y
		ps = append(ps, p)
	}
	if _, err := tess.Run(cfg, ps, 2, tess.WithOutputPath(slab)); err != nil {
		t.Fatal(err)
	}
	err := dispatch([]string{"render", "-in", slab, "-o", png}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not a cube") {
		t.Errorf("non-cubic domain: err = %v", err)
	}
}
