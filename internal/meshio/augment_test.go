package meshio

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestAugmentParticles(t *testing.T) {
	cells := buildTestCells(t, 3, 3, 114)
	ext := geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3))
	m := new(MeshBuilder).Build(cells, ext, 0)
	ps := AugmentParticles(m)
	if len(ps) != m.NumCells() {
		t.Fatalf("augmented %d of %d particles", len(ps), m.NumCells())
	}
	for i, p := range ps {
		if p.ID != m.ParticleIDs[i] || p.Pos != m.Particles[i] {
			t.Fatalf("particle %d identity mismatch", i)
		}
		if math.Abs(p.Density*p.Volume-1) > 1e-12 {
			t.Fatalf("particle %d: density %v not inverse of volume %v", i, p.Density, p.Volume)
		}
	}
	// Densities sum-weighted by volumes give the box volume back.
	var vol float64
	for _, p := range ps {
		vol += p.Volume
	}
	if math.Abs(vol-27) > 1e-6*27 {
		t.Errorf("volumes sum to %v, want 27", vol)
	}
}

func TestAugmentedRoundTrip(t *testing.T) {
	ps := []AugmentedParticle{
		{ID: 7, Pos: geom.V(1, 2, 3), Volume: 0.5, Density: 2},
		{ID: -1, Pos: geom.V(-4, 0, 9.25), Volume: 2, Density: 0.5},
	}
	data, err := EncodeAugmented(ps)
	if err != nil {
		t.Fatal(err)
	}
	// 16-byte header + 56 bytes per particle.
	if len(data) != 16+56*2 {
		t.Errorf("encoded %d bytes, want %d", len(data), 16+56*2)
	}
	got, err := DecodeAugmented(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d particles", len(got))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Errorf("particle %d: %+v != %+v", i, got[i], ps[i])
		}
	}
}

func TestAugmentedRejectsCorruption(t *testing.T) {
	data, err := EncodeAugmented([]AugmentedParticle{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAugmented(data[:20]); err == nil {
		t.Error("truncated data accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := DecodeAugmented(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeAugmented(append(data, 1, 2, 3)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestAugmentedEmpty(t *testing.T) {
	data, err := EncodeAugmented(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAugmented(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d particles from empty set", len(got))
	}
}
