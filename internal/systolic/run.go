package systolic

import (
	"fmt"

	"aquoman/internal/bitvec"
)

// Machine executes a compiled PE chain on row vectors. The chain is
// branch-free and has no data memory, so the FIFO slot or register every
// instruction touches is fixed by the programs alone: NewMachine walks them
// once, symbolically, and lowers the chain to a straight-line kernel. A
// Pass, Copy or Store moves no data — the vector keeps its lane buffer
// under a new name — and every FIFO pop resolves to the buffer its
// producer wrote. An immediate is a read-only buffer holding the constant
// in every lane. What remains is one op per ALU instruction, each run as
// one loop over the vector's lanes.
//
// A defective program (a FIFO underflow, a read of a register its PE never
// wrote, a bad opcode, the wrong number of pushed vectors) is found by the
// walk; RunVec and Transform then return that error, which names the PE.
//
// A Machine owns its lane buffers, so RunVec performs no heap allocation,
// and a Machine is single-goroutine: share a *Mapped across goroutines and
// give each its own Machine.
type Machine struct {
	m   *Mapped
	err error // the lowering's verdict on a defective chain

	ops []op
	// slots names every lane buffer an op reads or writes: the streamed
	// inputs (set per call), then one buffer per ALU result and one per
	// distinct immediate.
	slots [][]int64
	outs  []int     // slot of each output column, in push order
	res   [][]int64 // result headers returned by RunVec
}

// op is one lowered ALU instruction: slots[dst] = slots[src] alu slots[opnd].
type op struct {
	alu            AluOp
	dst, src, opnd int
}

// NewMachine lowers a compiled transformation.
func NewMachine(m *Mapped) *Machine {
	ma := &Machine{m: m, slots: make([][]int64, m.NumInputs), res: make([][]int64, m.NumOutputs)}
	ma.err = ma.lower()
	return ma
}

// lower walks the chain, tracking which slot every FIFO entry and register
// holds, and emits the ALU ops in program order.
func (ma *Machine) lower() error {
	fifo := make([]int, ma.m.NumInputs) // the upstream FIFO of the next PE
	for i := range fifo {
		fifo[i] = i
	}
	imms := map[int64]int{}
	for pi, prog := range ma.m.Programs {
		regs := map[uint8]int{}
		var out, operands []int
		popped := 0
		for _, ins := range prog {
			fail := func(what string) error { return fmt.Errorf("systolic: PE %d: %s: %s", pi, ins, what) }
			var src int
			if ins.Rs == StreamReg {
				if popped == len(fifo) {
					return fail("input FIFO underflow")
				}
				src = fifo[popped]
				popped++
			} else if r, ok := regs[ins.Rs]; ok {
				src = r
			} else {
				return fail("reads a register this PE never wrote")
			}
			dst := src
			switch ins.Op {
			case OpPass:
			case OpCopy:
				operands = append(operands, src)
			case OpStore:
				operands = append(operands, src)
				continue
			case OpAlu:
				if ins.Alu > AluGT {
					return fail("bad ALU function")
				}
				var opnd int
				if ins.UseImm {
					opnd = ma.immSlot(imms, ins.Imm)
				} else if len(operands) > 0 {
					opnd, operands = operands[0], operands[1:]
				} else {
					return fail("operand FIFO underflow")
				}
				dst = ma.newSlot()
				ma.ops = append(ma.ops, op{ins.Alu, dst, src, opnd})
			default:
				return fail("bad opcode")
			}
			if ins.Rd == StreamReg {
				out = append(out, dst)
			} else {
				regs[ins.Rd] = dst
			}
		}
		if popped != len(fifo) {
			return fmt.Errorf("systolic: PE %d: popped %d of the %d vectors pushed to it", pi, popped, len(fifo))
		}
		fifo = out
	}
	if len(fifo) != ma.m.NumOutputs {
		return fmt.Errorf("systolic: PE %d: chain pushed %d vectors, want %d", len(ma.m.Programs)-1, len(fifo), ma.m.NumOutputs)
	}
	ma.outs = fifo
	return nil
}

// newSlot adds a machine-owned lane buffer and returns its slot.
func (ma *Machine) newSlot() int {
	ma.slots = append(ma.slots, make([]int64, bitvec.VecSize))
	return len(ma.slots) - 1
}

// immSlot returns the read-only slot holding v in every lane, adding it on
// first use.
func (ma *Machine) immSlot(imms map[int64]int, v int64) int {
	s, ok := imms[v]
	if !ok {
		s = ma.newSlot()
		for i := range ma.slots[s] {
			ma.slots[s][i] = v
		}
		imms[v] = s
	}
	return s
}

// RunVec transforms one row vector. inputs holds one slice per streamed
// column (all the same length n ≤ 32); the result holds one slice per
// output column. An output may be one of the inputs and the rest are the
// Machine's own buffers, reused across calls, so callers must copy if they
// retain results.
func (ma *Machine) RunVec(inputs [][]int64) ([][]int64, error) {
	if ma.err != nil {
		return nil, ma.err
	}
	if len(inputs) != ma.m.NumInputs {
		return nil, fmt.Errorf("systolic: got %d input columns, want %d", len(inputs), ma.m.NumInputs)
	}
	n := 0
	if len(inputs) > 0 {
		n = len(inputs[0])
		for _, c := range inputs {
			if len(c) != n {
				return nil, fmt.Errorf("systolic: ragged input vectors")
			}
		}
	}
	if n > bitvec.VecSize {
		return nil, fmt.Errorf("systolic: %d-row vector, the PE lanes hold %d", n, bitvec.VecSize)
	}
	slots := ma.slots
	copy(slots, inputs)
	for _, o := range ma.ops {
		o.alu.applyLanes(slots[o.dst][:n], slots[o.src], slots[o.opnd])
	}
	for i, s := range ma.outs {
		ma.res[i] = slots[s][:n]
	}
	return ma.res, nil
}

// Transform runs whole columns through the PE chain, vector by vector.
// inputs[c][r] is row r of streamed column c; the result is indexed the
// same way by output column.
func (ma *Machine) Transform(inputs [][]int64) ([][]int64, error) {
	if ma.err != nil {
		return nil, ma.err
	}
	nRows := 0
	if len(inputs) > 0 {
		nRows = len(inputs[0])
	}
	outs := make([][]int64, ma.m.NumOutputs)
	for i := range outs {
		outs[i] = make([]int64, 0, nRows)
	}
	inVec := make([][]int64, len(inputs))
	for base := 0; base < nRows; base += bitvec.VecSize {
		end := base + bitvec.VecSize
		if end > nRows {
			end = nRows
		}
		for c := range inputs {
			inVec[c] = inputs[c][base:end]
		}
		res, err := ma.RunVec(inVec)
		if err != nil {
			return nil, err
		}
		for c := range res {
			outs[c] = append(outs[c], res[c]...)
		}
	}
	return outs, nil
}
