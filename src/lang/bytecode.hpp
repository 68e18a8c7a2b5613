// Register-machine bytecode that the datapath VM executes per ACK.
//
// The compiler lowers each expression tree to a linear sequence of
// three-address instructions over a scratch slot file. This mirrors what
// a real constrained datapath (kernel module, SmartNIC firmware) would
// run: straight-line code, no allocation, no branches except Select.
#pragma once

#include <cstdint>
#include <vector>

#include "lang/ast.hpp"
#include "lang/pkt_fields.hpp"

namespace ccp::lang {

enum class OpCode : uint8_t {
  LoadConst,  // slot[dst] = consts[a]
  LoadFold,   // slot[dst] = fold_state[a]
  LoadPkt,    // slot[dst] = pkt.get(PktField(a))
  LoadVar,    // slot[dst] = vars[a]
  Neg, Not, Sqrt, Abs, Log, Exp, Cbrt,  // slot[dst] = op(slot[a])
  Add, Sub, Mul, Div, Pow, Min, Max,    // slot[dst] = slot[a] op slot[b]
  Lt, Le, Gt, Ge, Eq, Ne, And, Or,      // boolean ops produce 0.0 / 1.0
  Select,     // slot[dst] = slot[a] != 0 ? slot[b] : slot[c]
  Ewma,       // slot[dst] = (1-slot[c])*slot[a] + slot[c]*slot[b]
  StoreFold,  // fold_state[a] = slot[b]

  // --- superinstructions ---
  // Emitted only by the install-time optimizer (optimize_block in
  // compiler.cc), never by BlockBuilder. Const-operand forms fold the
  // ubiquitous LoadConst feeding a binary op into one instruction:
  // `slot[dst] = slot[a] op consts[b]`. This roughly halves the dynamic
  // instruction count of typical fold bodies (every `x + 1`, `win * 0.5`,
  // `rtt > 0` pattern) — the per-ACK interpreter loop is the datapath's
  // hottest code (§2.3).
  AddC, SubC, MulC, DivC, MinC, MaxC,
  LtC, LeC, GtC, GeC, EqC, NeC,
  EwmaC,    // slot[dst] = (1-consts[c])*slot[a] + consts[c]*slot[b]
  SelGtz,   // slot[dst] = slot[a] > 0 ? slot[b] : slot[c]  (fused compare+Select)
};

struct Instr {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
};

/// A compiled expression (or block of expressions): straight-line code
/// plus its constant pool and the slot holding the final value.
struct CodeBlock {
  std::vector<Instr> code;
  std::vector<double> consts;
  uint16_t n_slots = 0;
  uint16_t result_slot = 0;  // meaningful for single-expression blocks
};

}  // namespace ccp::lang
