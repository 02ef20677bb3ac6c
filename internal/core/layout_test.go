package core

import (
	"reflect"
	"testing"
)

// TestExecutorLayout pins the executor's write-hot field (DESIGN §17):
// live, written at every activation and release. It has at least a line
// less a word of padding on both sides — the start and the end of the
// struct count as neighbours, since other objects may sit there — so at
// any 8-byte alignment of the executor its writes invalidate no line
// holding the fields the claim path and the SEARCH sweep read (done,
// cause, ckptReq, the policy, the pool).
func TestExecutorLayout(t *testing.T) {
	const room = 64 - 8
	typ := reflect.TypeOf(executor{})
	hot, ok := typ.FieldByName("live")
	if !ok {
		t.Fatal("executor has no field live")
	}
	start, end := hot.Offset, hot.Offset+hot.Type.Size()
	prevEnd, nextStart := uintptr(0), typ.Size()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == hot.Name {
			continue
		}
		if e := f.Offset + f.Type.Size(); e <= start {
			prevEnd = max(prevEnd, e)
		} else {
			nextStart = min(nextStart, f.Offset)
		}
	}
	if start-prevEnd < room || nextStart-end < room {
		t.Errorf("executor.live: %d bytes to the previous field and %d to the next, want >= %d on both sides",
			start-prevEnd, nextStart-end, room)
	}
}
