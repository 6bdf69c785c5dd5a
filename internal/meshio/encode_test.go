package meshio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// buildTestMesh wraps buildTestCells into an encoded-ready block mesh
// over the periodic [0, L)^3 box.
func buildTestMesh(t testing.TB, n int, L float64, seed int64) *BlockMesh {
	t.Helper()
	cells := buildTestCells(t, n, L, seed)
	return new(MeshBuilder).Build(cells, geom.NewBox(geom.V(0, 0, 0), geom.V(L, L, L)), 0)
}

// TestEncodeV2GoldenRoundTrip pins the v2 format's defining property:
// encode -> decode -> encode is byte-stable (the power-of-two
// quantization grid re-derives identically from dequantized vertices),
// and everything except vertex coordinates survives exactly.
func TestEncodeV2GoldenRoundTrip(t *testing.T) {
	m := buildTestMesh(t, 3, 3, 211)
	enc1, err := EncodeV2(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBlockMesh(enc1) // format-sniffed v2 path
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeV2(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode->decode->encode not byte-stable (%d vs %d bytes)", len(enc1), len(enc2))
	}
	if dec.NumCells() != m.NumCells() || len(dec.Verts) != len(m.Verts) {
		t.Fatalf("decode shape: %d cells / %d verts, want %d / %d",
			dec.NumCells(), len(dec.Verts), m.NumCells(), len(m.Verts))
	}
	if dec.Extents != m.Extents {
		t.Errorf("extents %+v != %+v", dec.Extents, m.Extents)
	}
	for i := range m.Particles {
		// Sites are the canonical-weld input and must stay exact.
		if dec.Particles[i] != m.Particles[i] {
			t.Fatalf("site %d drifted: %+v != %+v", i, dec.Particles[i], m.Particles[i])
		}
		if dec.ParticleIDs[i] != m.ParticleIDs[i] {
			t.Fatalf("id %d: %d != %d", i, dec.ParticleIDs[i], m.ParticleIDs[i])
		}
		if dec.Volumes[i] != m.Volumes[i] || dec.Areas[i] != m.Areas[i] {
			t.Fatalf("cell %d scalars drifted", i)
		}
		if dec.Complete[i] != m.Complete[i] {
			t.Fatalf("cell %d completeness flipped", i)
		}
		dlo, dhi := dec.Faces(i)
		if lo, hi := m.Faces(i); dhi-dlo != hi-lo {
			t.Fatalf("cell %d face count %d != %d", i, dhi-dlo, hi-lo)
		}
	}
	// Quantization error is bounded by one grid step per axis.
	for i, v := range m.Verts {
		d := dec.Verts[i]
		span := m.Extents.Max.Sub(m.Extents.Min)
		for a := 0; a < 3; a++ {
			tol := span.Component(a) / (1 << 30)
			if diff := v.Component(a) - d.Component(a); diff > tol || diff < -tol {
				t.Fatalf("vert %d axis %d off by %g (tol %g)", i, a, diff, tol)
			}
		}
	}
}

// TestV2CanonicalMatchesV1 is the cross-version interchange guarantee:
// a v2 round trip feeds MergeCanonical the same sites as a v1 round
// trip, so the canonical merged bytes are identical even though v2
// quantizes stored vertex coordinates.
func TestV2CanonicalMatchesV1(t *testing.T) {
	m := buildTestMesh(t, 3, 3, 212)
	domain := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	encV1 := EncodeV1(m)
	encV2, err := EncodeV2(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(encV2) >= len(encV1) {
		t.Errorf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(encV2), len(encV1))
	}
	decV1, err := DecodeBlockMesh(encV1)
	if err != nil {
		t.Fatal(err)
	}
	decV2, err := DecodeBlockMesh(encV2)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := MergeCanonical([]*BlockMesh{decV1}, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeCanonical([]*BlockMesh{decV2}, domain, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("canonical merged meshes differ between v1 and v2 round trips")
	}
}

// TestErrMeshTooLarge pins the structured too-large error by lowering the
// format limit to a synthetic value the test mesh exceeds.
func TestErrMeshTooLarge(t *testing.T) {
	old := formatCountMax
	formatCountMax = 8
	defer func() { formatCountMax = old }()
	m := buildTestMesh(t, 3, 3, 216) // 27 cells > 8
	if _, err := m.Encode(); !errors.Is(err, ErrMeshTooLarge) {
		t.Fatalf("Encode: %v, want ErrMeshTooLarge", err)
	}
}

// A vertex the quantization grid cannot place is an error, not a block
// that decodes to other coordinates or not at all: NaN, either infinity,
// and two finite coordinates whose span overflows.
func TestEncodeRejectsNonFiniteVertex(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"span overflow", -math.MaxFloat64}} {
		m := buildTestMesh(t, 3, 3, 218)
		if tc.name == "span overflow" {
			m.Verts[1].X = math.MaxFloat64
		}
		m.Verts[4].X = tc.x
		if _, err := m.Encode(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Encode = %v, want ErrNonFinite", tc.name, err)
		}
	}
}

// quantize rounds as math.Round of the quotient by the step, clamped to
// the grid, did: at and beside every half, at the ends of the grid, and
// for steps from the subnormal to the huge.
func TestQuantizeMatchesRound(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	for _, exp := range []int32{-1074, -1060, -1030, -60, -31, -3, 0, 5, 900} {
		g := newGrid(rng.NormFloat64(), exp)
		var ys []float64
		for _, y := range []float64{0, 0.5, 1.5, 2.5, 1<<31 + 0.5, math.MaxUint32 - 0.5, math.MaxUint32, 1 << 32, 1<<32 + 1} {
			ys = append(ys, y, math.Nextafter(y, 0), math.Nextafter(y, math.Inf(1)))
		}
		for range 1000 {
			ys = append(ys, rng.Float64()*(1<<32), float64(rng.Int63n(1<<32))+0.5)
		}
		for _, y := range ys {
			x := g.origin + y*g.step
			want := math.Round((x - g.origin) / g.step)
			want = max(0, min(want, math.MaxUint32))
			if got := g.quantize(x); float64(got) != want {
				t.Fatalf("exp %d: quantize(%v) = %d, math.Round gives %v", exp, x, got, want)
			}
		}
	}
}

// Encode sizes its buffer before writing: one allocation per block.
func TestEncodeAllocatesOnce(t *testing.T) {
	m := buildTestMesh(t, 4, 4, 219)
	if n := testing.AllocsPerRun(5, func() { m.Encode() }); n != 1 {
		t.Errorf("Encode made %.0f allocations, want 1", n)
	}
}

// randomMesh is a structurally valid block mesh with random contents:
// vertex coordinates at one of several scales, subnormal and near the
// largest finite span included, and arbitrary bits for every float the
// format stores exactly.
func randomMesh(rng *rand.Rand) *BlockMesh {
	scales := []float64{0, 1e-310, 1e-20, 1, 1e20, 1e307}
	coord := func(scale float64) float64 {
		x := (rng.Float64()*2 - 1) * scale
		if rng.Intn(8) == 0 {
			x = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		return x
	}
	anyFloat := func() float64 { return math.Float64frombits(rng.Uint64()) }
	m := &BlockMesh{}
	var axes [3]float64
	for a := range axes {
		axes[a] = scales[rng.Intn(len(scales))]
	}
	for range rng.Intn(60) {
		m.Verts = append(m.Verts, geom.V(coord(axes[0]), coord(axes[1]), coord(axes[2])))
	}
	m.Extents = geom.Box{Min: geom.V(anyFloat(), anyFloat(), anyFloat()), Max: geom.V(anyFloat(), anyFloat(), anyFloat())}
	id := rng.Int63n(1 << 40)
	for range rng.Intn(20) {
		for range rng.Intn(12) {
			if len(m.Verts) > 0 {
				for range rng.Intn(9) {
					m.LoopVerts = append(m.LoopVerts, int32(rng.Intn(len(m.Verts))))
				}
			}
			m.endFace(rng.Int63() >> rng.Intn(64) * int64(rng.Intn(3)-1))
		}
		id += rng.Int63n(1<<uint(rng.Intn(40))) - 1<<uint(rng.Intn(20))
		m.endCell(geom.V(anyFloat(), anyFloat(), anyFloat()), id, anyFloat(), anyFloat(), rng.Intn(2) == 0)
	}
	return m
}

// The round-trip property of the one writer: for any mesh with finite
// vertices, decode(encode(m)) keeps the extents, sites, ids, volumes,
// areas, complete flags and connectivity bit for bit, and each vertex
// coordinate within one step of its axis's grid; encoding the decoded
// mesh again gives the same bytes.
func TestEncodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	bits := func(v geom.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	for trial := range 2000 {
		m := randomMesh(rng)
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d, err := DecodeBlockMesh(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		same := bits(d.Extents.Min) == bits(m.Extents.Min) && bits(d.Extents.Max) == bits(m.Extents.Max) &&
			slices.Equal(d.ParticleIDs, m.ParticleIDs) && slices.Equal(d.Complete, m.Complete) &&
			slices.Equal(d.FaceEnds, m.FaceEnds) && slices.Equal(d.Neighbors, m.Neighbors) &&
			slices.Equal(d.LoopEnds, m.LoopEnds) && slices.Equal(d.LoopVerts, m.LoopVerts) &&
			len(d.Particles) == len(m.Particles) && len(d.Verts) == len(m.Verts)
		for i := 0; same && i < len(m.Particles); i++ {
			same = bits(d.Particles[i]) == bits(m.Particles[i]) &&
				math.Float64bits(d.Volumes[i]) == math.Float64bits(m.Volumes[i]) &&
				math.Float64bits(d.Areas[i]) == math.Float64bits(m.Areas[i])
		}
		if !same {
			t.Fatalf("trial %d: the round trip changed more than vertex coordinates", trial)
		}
		for a := 0; a < 3; a++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range m.Verts {
				lo, hi = min(lo, v.Component(a)), max(hi, v.Component(a))
			}
			step := math.Ldexp(1, max(math.Ilogb(hi-lo)-31, -1074))
			for i, v := range m.Verts {
				if diff := math.Abs(d.Verts[i].Component(a) - v.Component(a)); !(diff <= step) {
					t.Fatalf("trial %d: vertex %d axis %d moved %g, more than the step %g", trial, i, a, diff, step)
				}
			}
		}
		again, err := d.Encode()
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("trial %d: re-encoding the decoded mesh gave other bytes (err %v)", trial, err)
		}
	}
}

// TestDecodeV2Malformed sweeps the rejection surface of the container:
// every proper prefix, a wrong version, trailing bytes, a second frame, a
// bad frame or end marker, an empty container, and a frame length that
// disagrees with its body must all error without panicking.
func TestDecodeV2Malformed(t *testing.T) {
	m := buildTestMesh(t, 2, 2, 217)
	enc, err := EncodeV2(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBlockMesh(enc[:i]); err == nil {
			t.Fatalf("truncated container of %d bytes accepted", i)
		}
	}
	const header = 12 // magic + version
	frame := enc[header : len(enc)-1]
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), enc...)) }
	cases := map[string][]byte{
		"unsupported version": mutate(func(b []byte) []byte { b[8] = 3; return b }),
		"trailing byte":       mutate(func(b []byte) []byte { return append(b, 0) }),
		"two frames":          mutate(func(b []byte) []byte { return append(append(b[:len(b)-1], frame...), 0) }),
		"bad frame marker":    mutate(func(b []byte) []byte { b[header] = 2; return b }),
		"bad end marker":      mutate(func(b []byte) []byte { b[len(b)-1] = 7; return b }),
		"empty container":     append(append([]byte(nil), enc[:header]...), 0),
		"frame too short":     mutate(func(b []byte) []byte { b[header+1]--; return b }),
		"frame too long":      mutate(func(b []byte) []byte { b[header+1]++; return append(b, 0) }),
	}
	for name, data := range cases {
		if _, err := DecodeBlockMesh(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
