// Package bus defines the memory-transaction messages exchanged between
// cores, the interconnect, and the memory banks, including the custom
// LRwait/SCwait/Mwait operations and Colibri's internal protocol messages
// (SuccessorUpdate, WakeUpRequest).
//
// A Request travels on the request network from a core (through its Qnode)
// to a memory bank. A Response travels on the response network from a bank
// back to a core. Colibri's SuccessorUpdate is a Response-network message
// addressed to a Qnode; its WakeUpRequest is a Request-network message
// addressed to a bank controller.
package bus

import "fmt"

// Op enumerates memory operations. The numeric values are stable and are
// used by the ISA encoder.
type Op uint8

const (
	// Nop is the zero Op; it is never sent on the network.
	Nop Op = iota
	// Load is a word load.
	Load
	// Store is a word store.
	Store
	// AmoAdd through AmoMaxU are single-round-trip atomic
	// read-modify-write operations executed by the bank's AMO ALU.
	AmoAdd
	AmoSwap
	AmoAnd
	AmoOr
	AmoXor
	AmoMin
	AmoMax
	AmoMinU
	AmoMaxU
	// LR and SC are the standard RISC-V load-reserved and
	// store-conditional operations.
	LR
	SC
	// LRWait and SCWait are the paper's polling-free pair: the LRWait
	// response is withheld by the memory controller until the issuing
	// core is at the head of the reservation queue for the address.
	LRWait
	SCWait
	// MWait monitors an address: the response is withheld until the
	// memory value differs from the expected value carried in Data.
	MWait
	// WakeUpReq is Colibri-internal: sent by a Qnode to the bank
	// controller to promote the successor to the head of the queue.
	WakeUpReq
)

var opNames = [...]string{
	Nop: "nop", Load: "lw", Store: "sw",
	AmoAdd: "amoadd", AmoSwap: "amoswap", AmoAnd: "amoand", AmoOr: "amoor",
	AmoXor: "amoxor", AmoMin: "amomin", AmoMax: "amomax", AmoMinU: "amominu",
	AmoMaxU: "amomaxu",
	LR:      "lr", SC: "sc", LRWait: "lrwait", SCWait: "scwait", MWait: "mwait",
	WakeUpReq: "wakeupreq",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsAMO reports whether o is a single-round-trip atomic RMW operation.
func (o Op) IsAMO() bool { return o >= AmoAdd && o <= AmoMaxU }

// Writes reports whether o can modify memory when it succeeds.
func (o Op) Writes() bool {
	return o == Store || o.IsAMO() || o == SC || o == SCWait
}

// Request is a core-to-memory message.
//
// The fields are ordered by size (ints, then uint32s, then bytes) so the
// struct carries no padding: every fabric FIFO slot holds one, and every
// hop copies one.
type Request struct {
	// Src is the issuing core ID; responses are routed back to it.
	Src int
	// Colibri WakeUpRequest payload: the successor core to promote and
	// the operation it is waiting with (LRWait or MWait, with SuccData
	// holding MWait's expected value). Piggybacked so the controller can
	// serve the successor without an extra round-trip; the controller
	// learned these values when it enqueued the successor and forwarded
	// them to the predecessor's Qnode in the SuccessorUpdate.
	Succ int

	Addr uint32
	// Data is the store/AMO operand, or the expected value for MWait.
	Data     uint32
	SuccData uint32

	Op     Op
	SuccOp Op
}

// RespKind distinguishes ordinary memory responses from Colibri's
// Qnode-directed protocol messages.
type RespKind uint8

const (
	// RespNormal is a reply to a core's memory request.
	RespNormal RespKind = iota
	// RespSuccUpdate is Colibri's SuccessorUpdate: it writes the
	// successor link into the destination core's Qnode and is consumed
	// there; the core itself never observes it.
	RespSuccUpdate
)

// Response is a memory-to-core message, with its fields ordered by size
// like Request's.
type Response struct {
	// Dst is the core (or its Qnode) the message is addressed to.
	Dst int
	// SuccessorUpdate payload (Kind == RespSuccUpdate): Succ, SuccData
	// and SuccOp.
	Succ int

	// Addr echoes the request address (used by Qnodes and tracing).
	Addr     uint32
	Data     uint32
	SuccData uint32

	Kind RespKind
	Op   Op
	// OK is the success flag: true for a granted LR/LRwait/Mwait or a
	// successful SC/SCwait; false for a failed SC/SCwait or an LRwait/
	// Mwait that was refused because the controller had no free queue.
	OK     bool
	SuccOp Op
}

func (r Request) String() string {
	return fmt.Sprintf("%s core%d addr=%#x data=%#x", r.Op, r.Src, r.Addr, r.Data)
}

func (r Response) String() string {
	k := ""
	if r.Kind == RespSuccUpdate {
		k = " succ-update"
	}
	return fmt.Sprintf("%s->core%d%s data=%#x ok=%v", r.Op, r.Dst, k, r.Data, r.OK)
}
