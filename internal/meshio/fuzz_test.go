package meshio

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Decoder robustness: arbitrary corruption must produce errors, never
// panics or runaway allocations. Go's fuzzing engine uses these seeds
// during normal `go test` runs and explores further under `go test -fuzz`.

func FuzzDecodeBlockMesh(f *testing.F) {
	cells := buildTestCells(f, 3, 3, 124)
	m := new(MeshBuilder).Build(cells, geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3)), 0)
	valid := EncodeV1(m)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x31, 0x76, 0x48, 0x53, 0x45, 0x4d, 0x74}) // v1 magic only
	validV2, err := EncodeV2(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validV2)
	f.Add(validV2[:len(validV2)/2])
	f.Add(validV2[:13])                                           // header + frame marker, no body
	f.Add([]byte{0x74, 0x6d, 0x45, 0x53, 0x48, 0x66, 0x6d, 0x74}) // v2 magic only
	badVer := append([]byte(nil), validV2...)
	badVer[8] = 0xff // unsupported version
	f.Add(badVer)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBlockMesh(data)
		if err == nil {
			// Decoded meshes must be internally consistent.
			n := m.NumCells()
			if len(m.ParticleIDs) != n || len(m.Volumes) != n || checkArrays(m) != nil {
				t.Fatal("inconsistent decode accepted")
			}
			for _, vi := range m.LoopVerts {
				if int(vi) >= len(m.Verts) || vi < 0 {
					t.Fatal("out-of-range vertex index accepted")
				}
			}
		}
	})
}

func FuzzDecodeAugmented(f *testing.F) {
	valid, err := EncodeAugmented([]AugmentedParticle{
		{ID: 1, Pos: geom.V(1, 2, 3), Volume: 0.5, Density: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeAugmented(data)
		if err == nil && len(ps) > len(data)/56+1 {
			t.Fatal("decoded more particles than the data can hold")
		}
	})
}

// TestDecodeRandomMutations complements fuzzing with deterministic
// bit-flip coverage of a real encoded block, in both versions.
func TestDecodeRandomMutations(t *testing.T) {
	cells := buildTestCells(t, 3, 3, 122)
	m := new(MeshBuilder).Build(cells, geom.NewBox(geom.V(0, 0, 0), geom.V(3, 3, 3)), 0)
	v1 := EncodeV1(m)
	v2, err := EncodeV2(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	for _, valid := range [][]byte{v1, v2} {
		for i := 0; i < 300; i++ {
			data := append([]byte(nil), valid...)
			// Flip 1-4 random bytes and/or truncate.
			for k := 0; k < 1+rng.Intn(4); k++ {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
			if rng.Intn(3) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			// Must not panic; errors are fine, and occasional successful
			// decodes (mutation in float payload) must stay consistent.
			if m2, err := DecodeBlockMesh(data); err == nil {
				if checkArrays(m2) != nil {
					t.Fatal("inconsistent lucky decode")
				}
			}
		}
	}
}
