package systolic

import (
	"fmt"
	"sort"
	"strings"
)

// Config bounds the compiled PE chain. The FPGA prototype has 4 PEs with
// 8-instruction memories (Sec. VII); the trace-based simulator assumes "as
// big a Row Transformer as needed", which corresponds to MaxPEs == 0
// (unlimited chain length).
type Config struct {
	// IMem is the per-PE instruction memory size.
	IMem int
	// MaxPEs caps the chain length; 0 means unlimited.
	MaxPEs int
	// NumRegs is the per-PE register count (NumRegs constant when 0).
	// The linear chain model is more register-constrained than the
	// paper's 2-D systolic fabric, where operands also travel on
	// south/east wires; when a transformation exceeds NumRegs live
	// values, Compile retries with wider register files (up to
	// MaxWideRegs) and flags the mapping, standing in for that spatial
	// freedom. The resource report surfaces widened mappings.
	NumRegs int
}

// MaxWideRegs bounds the register-file widening fallback.
const MaxWideRegs = 64

// DefaultConfig mirrors the simulator's assumption: prototype-sized
// instruction memories, unlimited chain length.
func DefaultConfig() Config { return Config{IMem: DefaultIMem, MaxPEs: 0} }

// Mapped is a compiled row transformation: one program per PE in the
// chain, plus the streaming contract (how many input columns are popped
// per row and how many output columns are pushed).
type Mapped struct {
	Programs   []Program
	NumInputs  int
	NumOutputs int
	// PassInstrs counts forwarding (PASS-node) instructions the balancer
	// inserted — the ablation benches report this.
	PassInstrs int
	// RegsUsed is the per-PE register-file size the mapping needed.
	RegsUsed int
	// WidenedRegs marks mappings that exceeded the prototype's 7
	// registers and used the wide-register fabric model.
	WidenedRegs bool
}

// NumPEs returns the chain length.
func (m *Mapped) NumPEs() int { return len(m.Programs) }

// node is one hash-consed dataflow vertex.
type node struct {
	op       AluOp
	isInput  bool
	col      int
	isConst  bool
	constV   int64
	l, r     int // operand node ids (-1 for none)
	rIsConst bool
	rConst   int64
}

// Compile lowers output expressions over numInputs streamed columns into a
// PE chain. Common subexpressions are shared (FORK), constants fold into
// immediates, and values crossing PE boundaries become explicit
// forward/pop pairs (PASS nodes).
func Compile(outputs []Expr, numInputs int, cfg Config) (*Mapped, error) {
	if cfg.IMem <= 0 {
		cfg.IMem = DefaultIMem
	}
	b := &builder{memo: make(map[string]int)}
	// Input nodes exist for every streamed column, used or not: the
	// Table Reader delivers them and the PE chain must consume them.
	for i := 0; i < numInputs; i++ {
		b.nodes = append(b.nodes, node{isInput: true, col: i, l: -1, r: -1})
		b.memo[fmt.Sprintf("c%d", i)] = i
	}
	if mi := MaxColIndex(outputs); mi >= numInputs {
		return nil, fmt.Errorf("systolic: expression references column %d but only %d streamed", mi, numInputs)
	}
	outIDs := make([]int, len(outputs))
	for i, e := range outputs {
		id, err := b.lower(e)
		if err != nil {
			return nil, err
		}
		outIDs[i] = id
	}
	base := cfg.NumRegs
	if base <= 0 {
		base = NumRegs
	}
	var lastErr error
	for regs := base; regs <= MaxWideRegs; regs *= 2 {
		m, err := schedule(b.nodes, outIDs, numInputs, cfg, regs)
		if err == nil {
			m.RegsUsed = regs
			m.WidenedRegs = regs > base
			return m, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "register pressure") {
			return nil, err
		}
	}
	return nil, lastErr
}

type builder struct {
	nodes []node
	memo  map[string]int
}

// lower hash-conses e into the node list and returns its id. Constant
// subexpressions fold; a constant root is materialized via an input-free
// trick only if it is an output (handled in schedule by synthesizing from
// column 0), so here a pure-const output returns a const node id.
func (b *builder) lower(e Expr) (int, error) {
	switch n := e.(type) {
	case Col:
		return n.Index, nil
	case Const:
		key := fmt.Sprintf("k%d", n.V)
		if id, ok := b.memo[key]; ok {
			return id, nil
		}
		id := len(b.nodes)
		b.nodes = append(b.nodes, node{isConst: true, constV: n.V, l: -1, r: -1})
		b.memo[key] = id
		return id, nil
	case Bin:
		l, err := b.lower(n.L)
		if err != nil {
			return 0, err
		}
		r, err := b.lower(n.R)
		if err != nil {
			return 0, err
		}
		op := n.Op
		// Constant folding.
		if b.nodes[l].isConst && b.nodes[r].isConst {
			return b.lower(Const{V: op.Apply(b.nodes[l].constV, b.nodes[r].constV)})
		}
		// Normalize a constant left operand: rf[rs] must be a real
		// register, so the constant has to move to the immediate side.
		if b.nodes[l].isConst {
			c := b.nodes[l].constV
			switch op {
			case AluAdd, AluMul, AluEQ:
				l, r = r, l // commutative
			case AluLT:
				op = AluGT
				l, r = r, l
			case AluGT:
				op = AluLT
				l, r = r, l
			case AluSub:
				// c - x == (x - c) * -1
				inner, err := b.binNode(AluSub, r, l)
				if err != nil {
					return 0, err
				}
				negOne, err := b.lower(Const{V: -1})
				if err != nil {
					return 0, err
				}
				return b.binNode(AluMul, inner, negOne)
			case AluDiv:
				return 0, fmt.Errorf("systolic: constant dividend (%d / expr) is not mappable to the PE ISA", c)
			}
		}
		return b.binNode(op, l, r)
	default:
		return 0, fmt.Errorf("systolic: unknown expr %T", e)
	}
}

func (b *builder) binNode(op AluOp, l, r int) (int, error) {
	key := fmt.Sprintf("b%d.%d.%d", op, l, r)
	if id, ok := b.memo[key]; ok {
		return id, nil
	}
	nd := node{op: op, l: l, r: r}
	if b.nodes[r].isConst {
		nd.rIsConst = true
		nd.rConst = b.nodes[r].constV
		nd.r = -1
	}
	id := len(b.nodes)
	b.nodes = append(b.nodes, nd)
	b.memo[key] = id
	return id, nil
}

// segState tracks one PE being filled by the scheduler.
type segState struct {
	prog     Program
	regOf    map[int]uint8 // node id -> register
	freeRegs []uint8
}

func newSeg(numRegs int) *segState {
	s := &segState{regOf: make(map[int]uint8)}
	for r := numRegs; r >= 1; r-- {
		s.freeRegs = append(s.freeRegs, uint8(r))
	}
	return s
}

func (s *segState) alloc(id int) (uint8, bool) {
	if len(s.freeRegs) == 0 {
		return 0, false
	}
	r := s.freeRegs[len(s.freeRegs)-1]
	s.freeRegs = s.freeRegs[:len(s.freeRegs)-1]
	s.regOf[id] = r
	return r, true
}

func (s *segState) free(id int) {
	if r, ok := s.regOf[id]; ok {
		delete(s.regOf, id)
		s.freeRegs = append(s.freeRegs, r)
	}
}

// schedule linearizes the DAG (node ids are already topologically ordered:
// operands precede users) and packs it into PE-sized segments. Values that
// cross a segment boundary are pushed by the producer segment and popped by
// the consumer, in ascending node-id order.
func schedule(nodes []node, outIDs []int, numInputs int, cfg Config, numRegs int) (*Mapped, error) {
	// lastUse[id] = index of last computing node that consumes id; outputs
	// keep values alive to the end.
	lastUse := make([]int, len(nodes))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for i, nd := range nodes {
		if nd.l >= 0 {
			lastUse[nd.l] = i
		}
		if nd.r >= 0 {
			lastUse[nd.r] = i
		}
	}
	const endOfProgram = 1 << 30
	outNeeded := make(map[int]bool, len(outIDs))
	for _, id := range outIDs {
		if nodes[id].isConst {
			return nil, fmt.Errorf("systolic: pure-constant output column; fold it on the host side")
		}
		lastUse[id] = endOfProgram
		outNeeded[id] = true
	}

	m := &Mapped{NumInputs: numInputs, NumOutputs: len(outIDs)}
	seg := newSeg(numRegs)
	// Instruction-memory accounting: only compute instructions (Store/ALU)
	// count against IMem. Pops and pushes model the systolic array's
	// south/east operand wires (the PASS/FORK dataflow nodes of Fig. 10),
	// which the hardware routes without occupying ALU slots.
	segCompute := 0
	// liveIn holds node ids the current segment pops at its start, in
	// ascending order. Segment 0 pops the streamed input columns.
	var liveIn []int
	for i := 0; i < numInputs; i++ {
		liveIn = append(liveIn, i)
	}
	emitPops := func() error {
		for _, id := range liveIn {
			r, ok := seg.alloc(id)
			if !ok {
				return fmt.Errorf("systolic: register pressure: %d live values exceed %d registers", len(liveIn), numRegs)
			}
			seg.prog = append(seg.prog, Instr{Op: OpPass, Rd: r, Rs: StreamReg})
		}
		return nil
	}
	if err := emitPops(); err != nil {
		return nil, err
	}

	// closeSeg pushes live values (every node id in seg.regOf still needed
	// beyond position pos) and opens the next segment.
	closeSeg := func(pos int) error {
		if cfg.MaxPEs > 0 && len(m.Programs) >= cfg.MaxPEs {
			return fmt.Errorf("systolic: transformation needs more than %d PEs", cfg.MaxPEs)
		}
		var liveOut []int
		for id := range seg.regOf {
			if lastUse[id] >= pos {
				liveOut = append(liveOut, id)
			}
		}
		sort.Ints(liveOut)
		for _, id := range liveOut {
			seg.prog = append(seg.prog, Instr{Op: OpPass, Rd: StreamReg, Rs: seg.regOf[id]})
		}
		m.PassInstrs += len(liveOut)
		m.Programs = append(m.Programs, seg.prog)
		seg = newSeg(numRegs)
		segCompute = 0
		liveIn = liveOut
		m.PassInstrs += len(liveOut)
		return emitPops()
	}

	costOf := func(nd node) int {
		if nd.rIsConst || nd.r < 0 {
			return 1 // ALU with immediate
		}
		return 2 // Store + ALU
	}

	for i := numInputs; i < len(nodes); i++ {
		nd := nodes[i]
		if nd.isConst {
			continue // folded into immediates
		}
		// Make sure operands are resident; if not (they were produced in
		// an earlier segment and this segment didn't pop them), that is a
		// scheduling bug: closeSeg forwards everything live.
		ensure := func(id int) error {
			if id < 0 {
				return nil
			}
			if _, ok := seg.regOf[id]; !ok {
				return fmt.Errorf("systolic: internal: node %d operand %d not resident", i, id)
			}
			return nil
		}
		// Budget: compute instructions so far + this op must fit the
		// instruction memory, and a result register must be available.
		if segCompute+costOf(nd) > cfg.IMem || len(seg.freeRegs) == 0 {
			if err := closeSeg(i); err != nil {
				return nil, err
			}
		}
		if err := ensure(nd.l); err != nil {
			return nil, err
		}
		if err := ensure(nd.r); err != nil {
			return nil, err
		}
		lreg := seg.regOf[nd.l]
		in := Instr{Op: OpAlu, Alu: nd.op, Rs: lreg}
		if nd.rIsConst {
			in.UseImm = true
			in.Imm = nd.rConst
		} else {
			seg.prog = append(seg.prog, Instr{Op: OpStore, Rs: seg.regOf[nd.r]})
		}
		// Free operands dead after this node, then allocate the result
		// (possibly reusing an operand's register).
		if nd.l >= 0 && lastUse[nd.l] <= i {
			seg.free(nd.l)
		}
		if nd.r >= 0 && lastUse[nd.r] <= i {
			seg.free(nd.r)
		}
		rd, ok := seg.alloc(i)
		if !ok {
			return nil, fmt.Errorf("systolic: register pressure at node %d", i)
		}
		in.Rd = rd
		seg.prog = append(seg.prog, in)
		segCompute += costOf(nd)
	}

	// Final segment: push outputs in declared order (pushes are free wire
	// transfers, so they always fit).
	for _, id := range outIDs {
		r, ok := seg.regOf[id]
		if !ok {
			return nil, fmt.Errorf("systolic: internal: output node %d not resident in final PE", id)
		}
		seg.prog = append(seg.prog, Instr{Op: OpPass, Rd: StreamReg, Rs: r})
	}
	m.Programs = append(m.Programs, seg.prog)
	return m, nil
}
