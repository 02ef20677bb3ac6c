package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/loopir"
	"repro/internal/machine"
)

// jsonEvent is the JSON shape of one event.
type jsonEvent struct {
	Kind string  `json:"kind"`
	Loop int     `json:"loop"`
	IVec []int64 `json:"ivec,omitempty"`
	J    int64   `json:"j,omitempty"`
	Proc int     `json:"proc"`
	At   int64   `json:"at"`
	Seq  int64   `json:"seq"`
}

// WriteJSONL writes the recorded events as JSON Lines (one event object
// per line), for downstream analysis outside Go.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.Events() {
		je := jsonEvent{
			Kind: e.Kind.String(),
			Loop: int(e.Loop),
			IVec: e.IVec,
			J:    e.A,
			Proc: int(e.Proc),
			At:   e.At,
			Seq:  e.Seq,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reconstructs a Log from the JSON Lines format written by
// WriteJSONL, so exported traces can be re-imported for verification or
// rendering. Events keep their recorded sequence numbers; blank lines
// are ignored.
func ReadJSONL(r io.Reader) (*Log, error) {
	l := New()
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", n, err)
		}
		kind, err := parseEventKind(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", n, err)
		}
		l.events = append(l.events, Event{
			Kind: kind,
			Loop: int32(je.Loop),
			IVec: loopir.IVec(je.IVec),
			A:    je.J,
			Proc: int32(je.Proc),
			At:   machine.Time(je.At),
			Seq:  je.Seq,
		})
		l.seq = max(l.seq, je.Seq)
	}
}

// parseEventKind is the inverse of Kind.String.
func parseEventKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown event kind %q", name)
}
