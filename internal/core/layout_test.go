package core

import (
	"reflect"
	"testing"
)

// TestExecutorLayout pins the executor's write-hot fields (DESIGN §17):
// live, written at every activation and release, and the ICB depot,
// whose count every activation with an empty freelist loads and whose
// lock and count every B-th retirement writes. Each one has at least a
// line less a word of padding on both sides — the start and the end of
// the struct count as neighbours, since other objects may sit there — so
// at any 8-byte alignment of the executor its writes invalidate no line
// holding the fields the claim path and the SEARCH sweep read (done,
// cause, ckptReq, the policy, the pool).
func TestExecutorLayout(t *testing.T) {
	const room = 64 - 8
	typ := reflect.TypeOf(executor{})
	for _, name := range []string{"live", "depot"} {
		hot, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("executor has no field %s", name)
		}
		start, end := hot.Offset, hot.Offset+hot.Type.Size()
		prevEnd, nextStart := uintptr(0), typ.Size()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "_" || f.Name == name {
				continue
			}
			if e := f.Offset + f.Type.Size(); e <= start {
				prevEnd = max(prevEnd, e)
			} else {
				nextStart = min(nextStart, f.Offset)
			}
		}
		if start-prevEnd < room || nextStart-end < room {
			t.Errorf("executor.%s: %d bytes to the previous field and %d to the next, want >= %d on both sides",
				name, start-prevEnd, nextStart-end, room)
		}
	}
}
