package buffer

import "testing"

// FuzzReads drives every read operation over arbitrary bytes: reads may
// fail but must never panic, and length-prefixed reads must never return
// more data than the buffer holds.
func FuzzReads(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xD0, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	seed := New(0)
	seed.WriteString("hello")
	seed.WriteUint64(42)
	f.Add(append([]byte(nil), seed.Bytes()...))
	// Padded length prefixes, as CommitBytes writes them: a sequence in
	// full, an empty one, and one whose padded length overruns the data.
	padded := New(0)
	padded.CommitBytes(append(padded.ReserveBytes(), "padded"...))
	padded.CommitBytes(padded.ReserveBytes())
	f.Add(append([]byte(nil), padded.Bytes()...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		b := FromParts(data, nil)
		for b.Len() > 0 {
			before := b.Len()
			if s, err := b.ReadString(); err == nil && len(s) > len(data) {
				t.Fatalf("ReadString returned %d bytes from a %d-byte buffer", len(s), len(data))
			}
			if p, err := b.ReadBytes(); err == nil && len(p) > len(data) {
				t.Fatalf("ReadBytes returned %d bytes from a %d-byte buffer", len(p), len(data))
			}
			if _, err := b.ReadDoor(); err == nil {
				t.Fatal("ReadDoor succeeded with no door slots")
			}
			if b.Len() == before {
				if _, err := b.ReadByte(); err != nil {
					t.Fatal("ReadByte failed with bytes remaining")
				}
			}
		}
		// Varint paths.
		b2 := FromParts(data, nil)
		for b2.Len() > 0 {
			if _, err := b2.ReadUvarint(); err != nil {
				break
			}
		}
	})
}
