package storage

import (
	"bytes"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeRecords covers both users of the particle-record section:
// snapshot chunks and checkpoint site maps. Arbitrary bytes must decode
// to an error or to exactly the records the section has room for; a
// chunk that decodes re-encodes to the same bytes.
func FuzzDecodeRecords(f *testing.F) {
	chunk := encodeRecords(snapMagic, testParticles(5, 9))
	sites := encodeSites(map[int64]geom.Vec3{3: geom.V(1, 2, 3), -1: geom.V(4, 5, 6)})
	for _, valid := range [][]byte{chunk, sites} {
		f.Add(valid)
		f.Add(valid[:recHeaderSize])
		f.Add(valid[:len(valid)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ps, err := decodeRecords(snapMagic, data); err == nil {
			if len(data) != recHeaderSize+recSize*len(ps) {
				t.Fatalf("%d particles decoded from %d bytes", len(ps), len(data))
			}
			if !bytes.Equal(encodeRecords(snapMagic, ps), data) {
				t.Fatal("chunk decode→encode is not the identity")
			}
		}
		if m, err := decodeSites(data); err == nil && len(data) < recHeaderSize+recSize*len(m) {
			t.Fatalf("%d sites decoded from %d bytes", len(m), len(data))
		}
	})
}
