package bus

import (
	"strings"
	"testing"
	"unsafe"
)

// TestMessageSizes pins Request and Response to their unpadded sizes:
// two ints, three uint32s and up to four byte-sized fields, 32 bytes on
// 64-bit targets. Every fabric FIFO slot holds one message and every hop
// copies one, so reordering a field into a padding hole shows up here.
func TestMessageSizes(t *testing.T) {
	want := 2*unsafe.Sizeof(int(0)) + 16
	if got := unsafe.Sizeof(Request{}); got != want {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want %d", got, want)
	}
	if got := unsafe.Sizeof(Response{}); got != want {
		t.Errorf("unsafe.Sizeof(Response{}) = %d, want %d", got, want)
	}
}

func TestOpPredicates(t *testing.T) {
	amos := []Op{AmoAdd, AmoSwap, AmoAnd, AmoOr, AmoXor, AmoMin, AmoMax, AmoMinU, AmoMaxU}
	for _, op := range amos {
		if !op.IsAMO() {
			t.Errorf("%v.IsAMO() = false", op)
		}
		if !op.Writes() {
			t.Errorf("%v.Writes() = false", op)
		}
	}
	for _, op := range []Op{Load, LR, LRWait, MWait, WakeUpReq} {
		if op.IsAMO() {
			t.Errorf("%v.IsAMO() = true", op)
		}
		if op.Writes() {
			t.Errorf("%v.Writes() = true", op)
		}
	}
	for _, op := range []Op{Store, SC, SCWait} {
		if !op.Writes() {
			t.Errorf("%v.Writes() = false", op)
		}
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		Load: "lw", Store: "sw", AmoAdd: "amoadd", LR: "lr", SC: "sc",
		LRWait: "lrwait", SCWait: "scwait", MWait: "mwait", WakeUpReq: "wakeupreq",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestMessageStrings(t *testing.T) {
	r := Request{Op: LRWait, Addr: 0x40, Src: 3}
	if s := r.String(); !strings.Contains(s, "lrwait") || !strings.Contains(s, "core3") {
		t.Errorf("request string = %q", s)
	}
	resp := Response{Op: LRWait, Dst: 3, Data: 7, OK: true, Kind: RespSuccUpdate}
	if s := resp.String(); !strings.Contains(s, "succ-update") {
		t.Errorf("response string = %q", s)
	}
}
