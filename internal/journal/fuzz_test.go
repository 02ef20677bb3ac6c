package journal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary bytes. The contract under
// test: Decode never panics, every returned record re-encodes to a frame
// found intact in the input, and damage is always accounted for by a
// typed error — a clean (nil-error) decode must consume the input
// exactly, so no record can ever be silently dropped.
func FuzzDecode(f *testing.F) {
	seed := func(frames ...[]byte) {
		f.Add(bytes.Join(frames, nil))
	}
	r1, _ := Encode(1, "run-1", []byte(`{"workload":"flat","n":96}`))
	r2, _ := Encode(2, "run-1", nil)
	r3, _ := Encode(3, "run-2", []byte("checkpoint"))
	seed()               // empty journal
	seed(r1)             // single record
	seed(r1, r2, r3)     // healthy multi-record journal
	seed(r1[:len(r1)/2]) // crash mid-first-record
	seed(r1, r2[:5])     // crash mid-header
	flipped := append([]byte(nil), bytes.Join([][]byte{r1, r2, r3}, nil)...)
	flipped[len(r1)+headerLen] ^= 0x01
	seed(flipped) // bit flip in the middle record
	skew := append([]byte(nil), r2...)
	skew[0] = Version + 3
	seed(r1, fixCRC(skew), r3) // version-skewed middle record
	huge := append([]byte(nil), r1...)
	huge[4], huge[5], huge[6], huge[7] = 0xFF, 0xFF, 0xFF, 0xFF
	seed(huge) // implausible declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data)
		var total int
		for _, r := range recs {
			enc, encErr := Encode(r.Kind, r.ID, r.Data)
			if encErr != nil {
				t.Fatalf("decoded record does not re-encode: %v", encErr)
			}
			if !bytes.Contains(data, enc) {
				t.Fatalf("decoded record %+v has no intact frame in the input", r)
			}
			total += len(enc)
		}
		if err == nil {
			if total != len(data) {
				t.Fatalf("clean decode consumed %d of %d bytes", total, len(data))
			}
			return
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrVersion) {
			t.Fatalf("decode error is not typed: %v", err)
		}
	})
}
