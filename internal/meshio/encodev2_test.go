package meshio

import (
	"bytes"
	"errors"
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
	encV1, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
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
	b1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("canonical merged bytes differ between v1 and v2 round trips")
	}
}

// TestErrMeshTooLarge pins the structured too-large error on both
// encoders by lowering the format limit to a synthetic value the test
// mesh exceeds.
func TestErrMeshTooLarge(t *testing.T) {
	old := formatCountMax
	formatCountMax = 8
	defer func() { formatCountMax = old }()
	m := buildTestMesh(t, 3, 3, 216) // 27 cells > 8
	if _, err := m.Encode(); !errors.Is(err, ErrMeshTooLarge) {
		t.Fatalf("v1 Encode: %v, want ErrMeshTooLarge", err)
	}
	if _, err := EncodeV2(m); !errors.Is(err, ErrMeshTooLarge) {
		t.Fatalf("EncodeV2: %v, want ErrMeshTooLarge", err)
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
