package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func mustEncode(t *testing.T, k Kind, id string, data []byte) []byte {
	t.Helper()
	b, err := Encode(k, id, data)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, mustEncode(t, 1, "run-1", []byte(`{"n":96}`))...)
	buf = append(buf, mustEncode(t, 2, "run-1", nil)...)
	buf = append(buf, mustEncode(t, 3, "run-2", []byte("x"))...)

	recs, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	if recs[0].Kind != 1 || recs[0].ID != "run-1" || string(recs[0].Data) != `{"n":96}` {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Kind != 2 || recs[1].ID != "run-1" || len(recs[1].Data) != 0 {
		t.Errorf("record 1 = %+v", recs[1])
	}
	if recs[2].ID != "run-2" {
		t.Errorf("record 2 = %+v", recs[2])
	}
}

func TestDecodeEmpty(t *testing.T) {
	recs, err := Decode(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Decode(nil) = %v, %v", recs, err)
	}
}

func TestTruncatedTailKeepsEarlierRecords(t *testing.T) {
	full := mustEncode(t, 1, "a", []byte("payload"))
	buf := append(append([]byte(nil), full...), mustEncode(t, 2, "b", []byte("payload"))...)
	for cut := len(full) + 1; cut < len(buf); cut++ {
		recs, err := Decode(buf[:cut])
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
		if len(recs) != 1 || recs[0].ID != "a" {
			t.Fatalf("cut %d: records = %+v, want the intact first record", cut, recs)
		}
	}
}

func TestBitFlipSkipsOnlyDamagedRecord(t *testing.T) {
	r1 := mustEncode(t, 1, "a", []byte("first"))
	r2 := mustEncode(t, 2, "b", []byte("second"))
	r3 := mustEncode(t, 3, "c", []byte("third"))

	// Flip one payload bit in the middle record; the decoder must report
	// a checksum error for it and still return records 1 and 3.
	buf := append(append(append([]byte(nil), r1...), r2...), r3...)
	buf[len(r1)+headerLen+1] ^= 0x40
	recs, err := Decode(buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "c" {
		t.Fatalf("records = %+v, want a and c", recs)
	}
}

func TestVersionSkewSkipsRecordButContinues(t *testing.T) {
	r1 := mustEncode(t, 1, "a", nil)
	// Hand-build a checksum-valid record with a future version byte.
	r2 := mustEncode(t, 2, "b", []byte("next-gen"))
	r2[0] = Version + 1
	r2 = fixCRC(r2)
	r3 := mustEncode(t, 3, "c", nil)

	buf := append(append(append([]byte(nil), r1...), r2...), r3...)
	recs, err := Decode(buf)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	if errors.Is(err, ErrChecksum) || errors.Is(err, ErrTruncated) {
		t.Fatalf("version skew misreported: %v", err)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "c" {
		t.Fatalf("records = %+v, want a and c", recs)
	}
}

// fixCRC recomputes a frame's trailer after a test mutated its body.
func fixCRC(frame []byte) []byte {
	body := frame[:len(frame)-4]
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

func TestImplausibleLengthStopsScan(t *testing.T) {
	r1 := mustEncode(t, 1, "a", nil)
	bad := mustEncode(t, 2, "b", nil)
	// Corrupt the data length to something enormous; the CRC no longer
	// matters — the decoder must refuse to seek past the damage.
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0x7F
	buf := append(append([]byte(nil), r1...), bad...)
	recs, err := Decode(buf)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := Encode(1, "x", make([]byte, MaxData+1)); err == nil {
		t.Error("oversize data accepted")
	}
	if _, err := Encode(1, string(make([]byte, 0x10000)), nil); err == nil {
		t.Error("oversize id accepted")
	}
}

func TestWriterAppendsAcrossReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	for _, policy := range []Sync{SyncAlways, SyncNone} {
		w, err := Open(path, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1, policy.String(), []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := w.Append(1, "late", nil); err == nil {
			t.Fatal("append after Close succeeded")
		}
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records after 2 reopens, want 2", len(recs))
	}
	for i, want := range []string{"always", "none"} {
		if recs[i].ID != want {
			t.Errorf("record %d id = %q, want %q", i, recs[i].ID, want)
		}
	}
}

func TestReadFileMissingIsEmpty(t *testing.T) {
	recs, err := ReadFile(filepath.Join(t.TempDir(), "absent.journal"))
	if err != nil || recs != nil {
		t.Fatalf("ReadFile(missing) = %v, %v; want nil, nil", recs, err)
	}
}

func TestReadFileSurvivesCrashTail(t *testing.T) {
	// Simulate a crash mid-append: a valid journal with half a record at
	// the end. Boot-time replay must keep every complete record.
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := Open(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, "survivor", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	half := mustEncode(t, 2, "casualty", []byte("lost"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half[:len(half)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(recs) != 1 || recs[0].ID != "survivor" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestOpenTruncatesUnreachableTail(t *testing.T) {
	// A crash mid-write leaves a half-record at the tail; the next boot
	// appends new records. Without tail recovery those records would sit
	// behind undecodable bytes, unreachable forever — Open must drop the
	// damaged tail before the file grows again.
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := Open(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, "before-crash", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{Version, 7, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = Open(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, "after-reboot", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("journal still damaged after recovery: %v", err)
	}
	if len(recs) != 2 || recs[0].ID != "before-crash" || recs[1].ID != "after-reboot" {
		t.Fatalf("records = %+v, want both survivors", recs)
	}
}

func TestParseSync(t *testing.T) {
	for s, want := range map[string]Sync{"always": SyncAlways, "none": SyncNone} {
		got, err := ParseSync(s)
		if err != nil || got != want {
			t.Errorf("ParseSync(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"sometimes", "close"} {
		if _, err := ParseSync(s); err == nil {
			t.Errorf("ParseSync accepted the unknown policy %q", s)
		}
	}
}
