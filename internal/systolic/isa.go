// Package systolic implements AQUOMAN's Row Transformation Systolic Array
// (Sec. VI-B of the paper): a chain of processing elements (PEs), each a
// simple 4-stage integer vector processor with no branches and no data
// memory, executing the 32-bit instruction set of Table II. A compiler maps
// a query's row-transformation dataflow graph onto the PE chain, inserting
// PASS nodes to balance the graph and FORK (Copy) nodes to share common
// subexpressions, maintaining the paper's invariant that data only flows to
// south/east neighbours (no cycles).
package systolic

import "fmt"

// Register file geometry from the paper: each PE has 7 general-purpose
// registers rf[1..7]; rf[0] is the stream FIFO (reads pop the input FIFO,
// writes push the output FIFO); opReg is the operand FIFO feeding the ALU.
const (
	// NumRegs is the number of general-purpose registers per PE.
	NumRegs = 7
	// StreamReg is the register index wired to the input/output FIFOs.
	StreamReg = 0
	// DefaultIMem is the per-PE instruction memory size in the FPGA
	// prototype (4 PEs with 8 instructions each, Sec. VII).
	DefaultIMem = 8
	// DefaultPEs is the PE count in the FPGA prototype.
	DefaultPEs = 4
)

// Opcode selects the instruction class (Table II).
type Opcode uint8

const (
	// OpPass moves rf[rs] to rf[rd].
	OpPass Opcode = iota
	// OpCopy moves rf[rs] to rf[rd] and also pushes it into opReg (the
	// FORK node of the dataflow graph).
	OpCopy
	// OpStore pushes rf[rs] into opReg.
	OpStore
	// OpAlu performs rf[rd] <= rf[rs] ALUOP (opReg | imm).
	OpAlu
)

// AluOp selects the ALU function for OpAlu instructions.
type AluOp uint8

const (
	AluAdd AluOp = iota
	AluSub
	AluMul
	AluDiv
	AluEQ
	AluLT
	AluGT
)

func (a AluOp) String() string {
	switch a {
	case AluAdd:
		return "add"
	case AluSub:
		return "sub"
	case AluMul:
		return "mul"
	case AluDiv:
		return "div"
	case AluEQ:
		return "eq"
	case AluLT:
		return "lt"
	case AluGT:
		return "gt"
	default:
		return fmt.Sprintf("alu(%d)", uint8(a))
	}
}

// Apply evaluates the ALU function on one lane. Division by zero yields 0
// (inactive lanes may hold arbitrary data; the hardware must not trap).
func (a AluOp) Apply(x, y int64) int64 {
	switch a {
	case AluAdd:
		return x + y
	case AluSub:
		return x - y
	case AluMul:
		return x * y
	case AluDiv:
		if y == 0 {
			return 0
		}
		return x / y
	case AluEQ:
		if x == y {
			return 1
		}
		return 0
	case AluLT:
		if x < y {
			return 1
		}
		return 0
	case AluGT:
		if x > y {
			return 1
		}
		return 0
	default:
		panic("systolic: bad AluOp")
	}
}

// applyLanes sets d[i] = a.Apply(x[i], y[i]) on every lane of d, with the
// function chosen once outside the lane loop. x and y hold at least len(d)
// lanes.
func (a AluOp) applyLanes(d, x, y []int64) {
	x, y = x[:len(d)], y[:len(d)]
	switch a {
	case AluAdd:
		for i := range d {
			d[i] = x[i] + y[i]
		}
	case AluSub:
		for i := range d {
			d[i] = x[i] - y[i]
		}
	case AluMul:
		for i := range d {
			d[i] = x[i] * y[i]
		}
	case AluDiv:
		for i := range d {
			q := int64(0)
			if y[i] != 0 {
				q = x[i] / y[i]
			}
			d[i] = q
		}
	case AluEQ:
		for i := range d {
			d[i] = b2i(x[i] == y[i])
		}
	case AluLT:
		for i := range d {
			d[i] = b2i(x[i] < y[i])
		}
	case AluGT:
		for i := range d {
			d[i] = b2i(x[i] > y[i])
		}
	default:
		panic("systolic: bad AluOp")
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Instr is one decoded PE instruction.
type Instr struct {
	Op  Opcode
	Alu AluOp // valid when Op == OpAlu
	Rd  uint8 // destination register (0 = output FIFO)
	Rs  uint8 // source register (0 = input FIFO pop)
	// UseImm selects the immediate instead of opReg as the second ALU
	// operand.
	UseImm bool
	Imm    int64
}

func (in Instr) String() string {
	reg := func(r uint8) string {
		if r == StreamReg {
			return "fifo"
		}
		return fmt.Sprintf("r%d", r)
	}
	switch in.Op {
	case OpPass:
		return fmt.Sprintf("pass  %s <- %s", reg(in.Rd), reg(in.Rs))
	case OpCopy:
		return fmt.Sprintf("copy  %s, op <- %s", reg(in.Rd), reg(in.Rs))
	case OpStore:
		return fmt.Sprintf("store op <- %s", reg(in.Rs))
	case OpAlu:
		if in.UseImm {
			return fmt.Sprintf("%-5s %s <- %s, #%d", in.Alu, reg(in.Rd), reg(in.Rs), in.Imm)
		}
		return fmt.Sprintf("%-5s %s <- %s, op", in.Alu, reg(in.Rd), reg(in.Rs))
	default:
		return fmt.Sprintf("instr(%d)", in.Op)
	}
}

// Program is the instruction memory of one PE. With no branches the PC
// increments and wraps, executing the program once per row vector.
type Program []Instr

// Disassemble renders a program one instruction per line.
func (p Program) Disassemble() string {
	s := ""
	for i, in := range p {
		s += fmt.Sprintf("%2d: %s\n", i, in)
	}
	return s
}
