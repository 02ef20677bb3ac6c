// Package journal implements a durable append-only run journal: the
// crash-safety layer under loopschedd. Every run transition (submitted,
// started, reached a terminal state) is framed as a small versioned
// binary record and appended to one file; on boot the daemon replays the
// journal and re-queues every run whose last record is not terminal, so
// submitted work survives a process kill or restart.
//
// The format is built for hostile reads, not fast ones — a journal is
// read once per boot and may end mid-record (the process died inside a
// write) or carry flipped bits (torn sectors). Each record is framed as
//
//	u8  version
//	u8  kind
//	u16 id length   (little endian)
//	u32 data length (little endian)
//	id bytes, data bytes
//	u32 CRC-32 (IEEE) over everything above
//
// Decode walks the frames and returns every record it can prove intact,
// plus a typed error per damaged frame: ErrChecksum for a bit-flipped
// frame (skipped by its declared length, later records still returned),
// ErrVersion for a frame written by a newer format (checksum-valid, so
// skipping it is safe; later records still returned), ErrTruncated for a
// tail the file ends inside (nothing after it is reachable). Decode
// never panics on arbitrary input and never silently drops a record: a
// non-nil joined error accounts for everything not returned.
//
// Open truncates an unreachable tail before appending (standard
// write-ahead-log recovery), so records written after a crash remain
// decodable on the boot after that.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Version is the record format version this package writes.
const Version = 1

// MaxData bounds a record's data payload. A declared length above it is
// treated as corruption (a flipped length bit would otherwise send the
// scan gigabytes past the damage), which ends the scan like truncation.
const MaxData = 1 << 20

// Kind tags a record's meaning. The journal is agnostic to the values —
// the daemon defines its own transition kinds on top.
type Kind uint8

// Record is one decoded journal record.
type Record struct {
	Kind Kind
	ID   string
	Data []byte
}

// Typed decode failures. Each damaged frame contributes one error
// wrapping exactly one of these; match with errors.Is.
var (
	ErrTruncated = errors.New("journal: truncated record")
	ErrChecksum  = errors.New("journal: record checksum mismatch")
	ErrVersion   = errors.New("journal: unsupported record version")
)

const headerLen = 1 + 1 + 2 + 4 // version, kind, id length, data length

// Encode frames one record.
func Encode(k Kind, id string, data []byte) ([]byte, error) {
	if len(id) > 0xFFFF {
		return nil, fmt.Errorf("journal: id is %d bytes, limit %d", len(id), 0xFFFF)
	}
	if len(data) > MaxData {
		return nil, fmt.Errorf("journal: data is %d bytes, limit %d", len(data), MaxData)
	}
	buf := make([]byte, 0, headerLen+len(id)+len(data)+4)
	buf = append(buf, Version, byte(k))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, id...)
	buf = append(buf, data...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode scans buf and returns every intact record plus a joined typed
// error for everything it had to skip or could not reach.
func Decode(buf []byte) ([]Record, error) {
	recs, _, errs := scan(buf)
	return recs, errors.Join(errs...)
}

// scan is the framing walk under Decode and tail recovery: it returns
// the intact records, the offset at which the walk stopped (len(buf)
// when it reached the end), and one typed error per damaged frame.
func scan(buf []byte) (recs []Record, stop int, errs []error) {
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < headerLen {
			errs = append(errs, fmt.Errorf("offset %d: %d-byte partial header: %w", off, len(rest), ErrTruncated))
			break
		}
		idLen := int(binary.LittleEndian.Uint16(rest[2:4]))
		dataLen := int(binary.LittleEndian.Uint32(rest[4:8]))
		if dataLen > MaxData {
			errs = append(errs, fmt.Errorf("offset %d: implausible data length %d: %w", off, dataLen, ErrTruncated))
			break
		}
		frame := headerLen + idLen + dataLen + 4
		if len(rest) < frame {
			errs = append(errs, fmt.Errorf("offset %d: frame needs %d bytes, file has %d: %w", off, frame, len(rest), ErrTruncated))
			break
		}
		body := rest[:frame-4]
		want := binary.LittleEndian.Uint32(rest[frame-4 : frame])
		if crc32.ChecksumIEEE(body) != want {
			errs = append(errs, fmt.Errorf("offset %d: %w", off, ErrChecksum))
			off += frame
			continue
		}
		if v := body[0]; v != Version {
			errs = append(errs, fmt.Errorf("offset %d: record version %d: %w", off, v, ErrVersion))
			off += frame
			continue
		}
		recs = append(recs, Record{
			Kind: Kind(body[1]),
			ID:   string(body[headerLen : headerLen+idLen]),
			Data: append([]byte(nil), body[headerLen+idLen:]...),
		})
		off += frame
	}
	return recs, off, errs
}

// ReadFile decodes the journal at path. A missing file is an empty
// journal, not an error (first boot).
func ReadFile(path string) ([]Record, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

// Sync selects when the writer flushes to stable storage.
type Sync int

const (
	// SyncAlways fsyncs after every append: a crash loses at most the
	// record being written. The durable default.
	SyncAlways Sync = iota
	// SyncNone never fsyncs; durability is left to the OS page cache.
	SyncNone
)

// ParseSync maps the CLI spellings "always" and "none".
func ParseSync(s string) (Sync, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want always or none)", s)
}

func (s Sync) String() string {
	switch s {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("Sync(%d)", int(s))
}

// Writer appends records to a journal file. Safe for concurrent use.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	policy Sync
	closed bool
}

// Open opens (creating if needed) the journal at path for appending. It
// first drops any unreadable tail a crash mid-write left behind:
// records appended after undecodable bytes would be permanently out of
// the scanner's reach, so the tail must go before the file grows again.
// Mid-file damage the scanner can walk past (checksum or version
// failures in well-framed records) is preserved untouched.
func Open(path string, policy Sync) (*Writer, error) {
	if err := recoverTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, policy: policy}, nil
}

// recoverTail truncates path after the last byte the scanner reaches.
func recoverTail(path string) error {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, stop, _ := scan(buf); stop < len(buf) {
		return os.Truncate(path, int64(stop))
	}
	return nil
}

// Append frames and writes one record, honouring the sync policy. Each
// record is written with a single write call so concurrent appends never
// interleave frames.
func (w *Writer) Append(k Kind, id string, data []byte) error {
	buf, err := Encode(k, id, data)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: append to closed writer")
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if w.policy == SyncAlways {
		return w.f.Sync()
	}
	return nil
}

// Flush forces buffered records to stable storage regardless of policy
// (the daemon's drain path calls this before reporting a clean stop).
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if w.policy == SyncNone {
		return nil
	}
	return w.f.Sync()
}

// Close flushes per the sync policy and closes the file. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var syncErr error
	if w.policy != SyncNone {
		syncErr = w.f.Sync()
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return syncErr
}
