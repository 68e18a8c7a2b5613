#include "lang/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "lang/error.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::lang {
namespace {

/// Emits bytecode for expression trees into a CodeBlock.
class BlockBuilder {
 public:
  explicit BlockBuilder(const ExprArena& arena) : arena_(arena) {}

  uint16_t emit_expr(ExprId id) {
    const ExprNode& n = arena_.at(id);
    switch (n.kind) {
      case ExprKind::Const: {
        const uint16_t dst = alloc();
        block_.code.push_back({OpCode::LoadConst, dst, intern_const(n.constant), 0, 0});
        return dst;
      }
      case ExprKind::FoldRef: {
        const uint16_t dst = alloc();
        block_.code.push_back(
            {OpCode::LoadFold, dst, static_cast<uint16_t>(n.index), 0, 0});
        return dst;
      }
      case ExprKind::PktRef: {
        const uint16_t dst = alloc();
        block_.code.push_back(
            {OpCode::LoadPkt, dst, static_cast<uint16_t>(n.field), 0, 0});
        return dst;
      }
      case ExprKind::VarRef: {
        const uint16_t dst = alloc();
        block_.code.push_back(
            {OpCode::LoadVar, dst, static_cast<uint16_t>(n.index), 0, 0});
        return dst;
      }
      case ExprKind::Unary: {
        const uint16_t a = emit_expr(n.child[0]);
        const uint16_t dst = alloc();
        block_.code.push_back({unary_opcode(n.unary_op), dst, a, 0, 0});
        return dst;
      }
      case ExprKind::Binary: {
        const uint16_t a = emit_expr(n.child[0]);
        const uint16_t b = emit_expr(n.child[1]);
        const uint16_t dst = alloc();
        block_.code.push_back({binary_opcode(n.binary_op), dst, a, b, 0});
        return dst;
      }
      case ExprKind::Ternary: {
        const uint16_t a = emit_expr(n.child[0]);
        const uint16_t b = emit_expr(n.child[1]);
        const uint16_t c = emit_expr(n.child[2]);
        const uint16_t dst = alloc();
        const OpCode op =
            n.ternary_op == TernaryOp::If ? OpCode::Select : OpCode::Ewma;
        block_.code.push_back({op, dst, a, b, c});
        return dst;
      }
    }
    throw ProgramError("internal: unknown expression kind");
  }

  void emit_store_fold(uint16_t reg, uint16_t slot) {
    block_.code.push_back({OpCode::StoreFold, 0, reg, slot, 0});
  }

  CodeBlock take(uint16_t result_slot = 0) {
    block_.n_slots = next_slot_;
    block_.result_slot = result_slot;
    return std::move(block_);
  }

 private:
  uint16_t alloc() {
    if (next_slot_ == std::numeric_limits<uint16_t>::max()) {
      throw ProgramError("expression too large to compile");
    }
    return next_slot_++;
  }

  uint16_t intern_const(double v) {
    for (size_t i = 0; i < block_.consts.size(); ++i) {
      // Bitwise comparison so 0.0 and -0.0 keep distinct entries.
      if (block_.consts[i] == v && std::signbit(block_.consts[i]) == std::signbit(v)) {
        return static_cast<uint16_t>(i);
      }
    }
    block_.consts.push_back(v);
    return static_cast<uint16_t>(block_.consts.size() - 1);
  }

  static OpCode unary_opcode(UnaryOp op) {
    switch (op) {
      case UnaryOp::Neg: return OpCode::Neg;
      case UnaryOp::Not: return OpCode::Not;
      case UnaryOp::Sqrt: return OpCode::Sqrt;
      case UnaryOp::Abs: return OpCode::Abs;
      case UnaryOp::Log: return OpCode::Log;
      case UnaryOp::Exp: return OpCode::Exp;
      case UnaryOp::Cbrt: return OpCode::Cbrt;
    }
    throw ProgramError("internal: unknown unary op");
  }

  static OpCode binary_opcode(BinaryOp op) {
    switch (op) {
      case BinaryOp::Add: return OpCode::Add;
      case BinaryOp::Sub: return OpCode::Sub;
      case BinaryOp::Mul: return OpCode::Mul;
      case BinaryOp::Div: return OpCode::Div;
      case BinaryOp::Pow: return OpCode::Pow;
      case BinaryOp::Min: return OpCode::Min;
      case BinaryOp::Max: return OpCode::Max;
      case BinaryOp::Lt: return OpCode::Lt;
      case BinaryOp::Le: return OpCode::Le;
      case BinaryOp::Gt: return OpCode::Gt;
      case BinaryOp::Ge: return OpCode::Ge;
      case BinaryOp::Eq: return OpCode::Eq;
      case BinaryOp::Ne: return OpCode::Ne;
      case BinaryOp::And: return OpCode::And;
      case BinaryOp::Or: return OpCode::Or;
    }
    throw ProgramError("internal: unknown binary op");
  }

  const ExprArena& arena_;
  CodeBlock block_;
  uint16_t next_slot_ = 0;
};

/// Const-operand superinstruction for `op`, or nullopt if none exists.
std::optional<OpCode> const_form(OpCode op) {
  switch (op) {
    case OpCode::Add: return OpCode::AddC;
    case OpCode::Sub: return OpCode::SubC;
    case OpCode::Mul: return OpCode::MulC;
    case OpCode::Div: return OpCode::DivC;
    case OpCode::Min: return OpCode::MinC;
    case OpCode::Max: return OpCode::MaxC;
    case OpCode::Lt: return OpCode::LtC;
    case OpCode::Le: return OpCode::LeC;
    case OpCode::Gt: return OpCode::GtC;
    case OpCode::Ge: return OpCode::GeC;
    case OpCode::Eq: return OpCode::EqC;
    case OpCode::Ne: return OpCode::NeC;
    default: return std::nullopt;
  }
}

bool is_commutative(OpCode op) {
  return op == OpCode::Add || op == OpCode::Mul || op == OpCode::Min ||
         op == OpCode::Max || op == OpCode::Eq || op == OpCode::Ne;
}

/// `c OP x` rewritten as `x OP' c` for ordered comparisons.
std::optional<OpCode> flipped_comparison(OpCode op) {
  switch (op) {
    case OpCode::Lt: return OpCode::Gt;
    case OpCode::Le: return OpCode::Ge;
    case OpCode::Gt: return OpCode::Lt;
    case OpCode::Ge: return OpCode::Le;
    default: return std::nullopt;
  }
}

/// Slot operands of `in` that the VM reads, appended to `out`.
void read_slots(const Instr& in, uint16_t* out, size_t& n) {
  n = 0;
  switch (in.op) {
    case OpCode::LoadConst:
    case OpCode::LoadFold:
    case OpCode::LoadPkt:
    case OpCode::LoadVar:
      break;
    case OpCode::Neg: case OpCode::Not: case OpCode::Sqrt: case OpCode::Abs:
    case OpCode::Log: case OpCode::Exp: case OpCode::Cbrt:
    case OpCode::AddC: case OpCode::SubC: case OpCode::MulC: case OpCode::DivC:
    case OpCode::MinC: case OpCode::MaxC: case OpCode::LtC: case OpCode::LeC:
    case OpCode::GtC: case OpCode::GeC: case OpCode::EqC: case OpCode::NeC:
      out[n++] = in.a;
      break;
    case OpCode::Add: case OpCode::Sub: case OpCode::Mul: case OpCode::Div:
    case OpCode::Pow: case OpCode::Min: case OpCode::Max:
    case OpCode::Lt: case OpCode::Le: case OpCode::Gt: case OpCode::Ge:
    case OpCode::Eq: case OpCode::Ne: case OpCode::And: case OpCode::Or:
    case OpCode::EwmaC:
      out[n++] = in.a;
      out[n++] = in.b;
      break;
    case OpCode::Select: case OpCode::Ewma: case OpCode::SelGtz:
      out[n++] = in.a;
      out[n++] = in.b;
      out[n++] = in.c;
      break;
    case OpCode::StoreFold:
      out[n++] = in.b;
      break;
  }
}

/// Rewrites the slot operands of `in` through `alias` (same operand
/// classes as read_slots; immediates — pool/field/var/register indices —
/// are left alone).
void rewrite_slots(Instr& in, const std::vector<uint16_t>& alias) {
  switch (in.op) {
    case OpCode::LoadConst:
    case OpCode::LoadFold:
    case OpCode::LoadPkt:
    case OpCode::LoadVar:
      break;
    case OpCode::Neg: case OpCode::Not: case OpCode::Sqrt: case OpCode::Abs:
    case OpCode::Log: case OpCode::Exp: case OpCode::Cbrt:
    case OpCode::AddC: case OpCode::SubC: case OpCode::MulC: case OpCode::DivC:
    case OpCode::MinC: case OpCode::MaxC: case OpCode::LtC: case OpCode::LeC:
    case OpCode::GtC: case OpCode::GeC: case OpCode::EqC: case OpCode::NeC:
      in.a = alias[in.a];
      break;
    case OpCode::Add: case OpCode::Sub: case OpCode::Mul: case OpCode::Div:
    case OpCode::Pow: case OpCode::Min: case OpCode::Max:
    case OpCode::Lt: case OpCode::Le: case OpCode::Gt: case OpCode::Ge:
    case OpCode::Eq: case OpCode::Ne: case OpCode::And: case OpCode::Or:
    case OpCode::EwmaC:
      in.a = alias[in.a];
      in.b = alias[in.b];
      break;
    case OpCode::Select: case OpCode::Ewma: case OpCode::SelGtz:
      in.a = alias[in.a];
      in.b = alias[in.b];
      in.c = alias[in.c];
      break;
    case OpCode::StoreFold:
      in.b = alias[in.b];
      break;
  }
}

}  // namespace

CodeBlock optimize_block(CodeBlock block) {
  if (block.code.empty()) return block;

  // Pass 0 — local value numbering over the pure loads. Fold bodies
  // re-read the same packet field and registers across statements
  // (`Pkt.rtt` alone appears three times in the default program); each
  // repeat becomes an alias of the first load, and a LoadFold after a
  // StoreFold to the same register forwards the stored slot. Operands of
  // later instructions are rewritten through the alias map; the stranded
  // loads fall to DCE below.
  {
    std::vector<uint16_t> alias(block.n_slots);
    for (uint16_t s = 0; s < block.n_slots; ++s) alias[s] = s;
    auto value_number = [&alias](std::vector<int32_t>& map, uint16_t key,
                                 uint16_t dst) {
      if (map.size() <= key) map.resize(key + 1, -1);
      if (map[key] >= 0) {
        alias[dst] = static_cast<uint16_t>(map[key]);
      } else {
        map[key] = dst;
      }
    };
    std::vector<int32_t> const_slot, pkt_slot, var_slot, fold_slot;
    for (Instr& in : block.code) {
      rewrite_slots(in, alias);
      switch (in.op) {
        case OpCode::LoadConst: value_number(const_slot, in.a, in.dst); break;
        case OpCode::LoadPkt: value_number(pkt_slot, in.a, in.dst); break;
        case OpCode::LoadVar: value_number(var_slot, in.a, in.dst); break;
        case OpCode::LoadFold: value_number(fold_slot, in.a, in.dst); break;
        case OpCode::StoreFold:
          // The register now holds exactly slot b's value; later loads of
          // it forward straight to that slot.
          if (fold_slot.size() <= in.a) fold_slot.resize(in.a + 1, -1);
          fold_slot[in.a] = in.b;
          break;
        default: break;
      }
    }
    if (block.result_slot < block.n_slots) {
      block.result_slot = alias[block.result_slot];
    }
  }

  // Slots are SSA within a block (BlockBuilder never reuses one), so a
  // single forward pass sees every definition before its uses.
  constexpr uint32_t kNotConst = 0;
  std::vector<uint32_t> const_of(block.n_slots, kNotConst);  // pool idx + 1
  std::vector<int32_t> def_of(block.n_slots, -1);            // defining instr

  for (size_t i = 0; i < block.code.size(); ++i) {
    Instr& in = block.code[i];
    if (in.op == OpCode::LoadConst) {
      const_of[in.dst] = static_cast<uint32_t>(in.a) + 1;
      def_of[in.dst] = static_cast<int32_t>(i);
      continue;
    }

    // Const-operand fusion for binary ops.
    if (auto fused = const_form(in.op)) {
      const bool a_const = const_of[in.a] != kNotConst;
      const bool b_const = const_of[in.b] != kNotConst;
      if (b_const) {
        in.op = *fused;
        in.b = static_cast<uint16_t>(const_of[in.b] - 1);
      } else if (a_const && is_commutative(in.op)) {
        const uint16_t cidx = static_cast<uint16_t>(const_of[in.a] - 1);
        in.op = *fused;
        in.a = in.b;
        in.b = cidx;
      } else if (a_const) {
        if (auto flipped = flipped_comparison(in.op)) {
          // `c < x` == `x > c`: flip, then fuse the (now right-hand) const.
          const uint16_t const_slot = in.a;
          in.op = *const_form(*flipped);
          in.a = in.b;
          in.b = static_cast<uint16_t>(const_of[const_slot] - 1);
        }
      }
    } else if (in.op == OpCode::Ewma && const_of[in.c] != kNotConst) {
      in.op = OpCode::EwmaC;
      in.c = static_cast<uint16_t>(const_of[in.c] - 1);
    } else if (in.op == OpCode::Select) {
      // `(if (> x 0) b c)` is the idiomatic guard in fold bodies; fuse the
      // compare into the select so the guard costs one instruction.
      const int32_t cond_def = def_of[in.a];
      if (cond_def >= 0) {
        const Instr& d = block.code[static_cast<size_t>(cond_def)];
        if (d.op == OpCode::GtC && block.consts[d.b] == 0.0) {
          in.op = OpCode::SelGtz;
          in.a = d.a;
        }
      }
    }
    if (in.op != OpCode::StoreFold) def_of[in.dst] = static_cast<int32_t>(i);
  }

  // Dead-code elimination by backward liveness. StoreFold side effects and
  // the block result are the roots; fusion above strands the LoadConst and
  // compare instructions it absorbed, and this sweeps them away.
  std::vector<uint8_t> live(block.n_slots, 0);
  if (block.result_slot < block.n_slots) live[block.result_slot] = 1;
  std::vector<uint8_t> keep(block.code.size(), 0);
  for (size_t i = block.code.size(); i-- > 0;) {
    const Instr& in = block.code[i];
    if (in.op != OpCode::StoreFold && !live[in.dst]) continue;
    keep[i] = 1;
    uint16_t reads[3];
    size_t n = 0;
    read_slots(in, reads, n);
    for (size_t r = 0; r < n; ++r) live[reads[r]] = 1;
  }

  std::vector<Instr> out;
  out.reserve(block.code.size());
  for (size_t i = 0; i < block.code.size(); ++i) {
    if (keep[i]) out.push_back(block.code[i]);
  }
  block.code = std::move(out);
  return block;
}

CompiledProgram compile(const Program& prog) {
  check_or_throw(prog);

  CompiledProgram out;
  for (const auto& reg : prog.folds) {
    out.fold_names.push_back(reg.name);
    out.volatile_regs.push_back(reg.is_volatile);
    out.urgent_regs.push_back(reg.urgent);
    if (reg.urgent) {
      out.urgent_indices.push_back(
          static_cast<uint16_t>(out.fold_names.size() - 1));
    }
  }
  out.var_names = prog.vars;

  {
    BlockBuilder b(prog.arena);
    uint16_t last = 0;
    for (size_t i = 0; i < prog.folds.size(); ++i) {
      last = b.emit_expr(prog.folds[i].init);
      b.emit_store_fold(static_cast<uint16_t>(i), last);
    }
    // Statement blocks have no caller-visible result; point result_slot
    // at the last stored value so dead-code elimination doesn't keep an
    // arbitrary slot-0 definition alive.
    out.init_block = optimize_block(b.take(last));
  }
  {
    BlockBuilder b(prog.arena);
    uint16_t last = 0;
    for (size_t i = 0; i < prog.folds.size(); ++i) {
      // Store immediately so later updates observe the new value
      // (sequential fold semantics; see parser.hpp).
      last = b.emit_expr(prog.folds[i].update);
      b.emit_store_fold(static_cast<uint16_t>(i), last);
    }
    out.fold_block = optimize_block(b.take(last));
  }
  for (const auto& instr : prog.control) {
    out.control_ops.push_back(instr.op);
    if (instr.arg == kInvalidExpr) {
      out.control_args.emplace_back();
      continue;
    }
    BlockBuilder b(prog.arena);
    const uint16_t slot = b.emit_expr(instr.arg);
    out.control_args.push_back(optimize_block(b.take(slot)));
  }

  // Record which packet fields survive optimization, so the datapath can
  // skip computing measurements the program never reads.
  auto scan_fields = [&out](const CodeBlock& block) {
    for (const Instr& in : block.code) {
      if (in.op == OpCode::LoadPkt) out.pkt_fields_used |= 1u << in.a;
    }
  };
  scan_fields(out.init_block);
  scan_fields(out.fold_block);
  for (const auto& block : out.control_args) scan_fields(block);
  return out;
}

CompiledProgram compile_text(std::string_view src) {
  return compile(parse_program(src));
}

namespace {

// compile_text_shared's bounded LRU cache. Keyed by exact program text:
// an agent installs a handful of distinct programs across millions of
// flows, so the steady state stays tiny while every flow (in any datapath)
// shares one immutable compiled copy. The bound matters under algorithm
// churn (e.g. a tuner emitting a new parameterized program text per
// epoch): without it the map — and every JIT code region hanging off the
// cached programs — grows forever. Eviction drops only the cache's
// reference; flows holding the shared_ptr keep their program alive.
//
// The list owns the entries (front = most recently used); the index maps
// string_views into the list nodes' keys, which are stable across
// splices.
struct ProgramCacheEntry {
  std::string key;
  std::shared_ptr<const CompiledProgram> prog;
};

std::mutex g_prog_cache_mu;
std::list<ProgramCacheEntry>& prog_cache_list() {
  static auto* l = new std::list<ProgramCacheEntry>();
  return *l;
}
using ProgramCacheIndex =
    std::map<std::string_view, std::list<ProgramCacheEntry>::iterator, std::less<>>;
ProgramCacheIndex& prog_cache_index() {
  static auto* m = new ProgramCacheIndex();
  return *m;
}
size_t g_prog_cache_cap = kDefaultProgramCacheCapacity;

/// Evicts LRU entries until size <= cap. Caller holds g_prog_cache_mu.
void prog_cache_trim() {
  auto& list = prog_cache_list();
  auto& index = prog_cache_index();
  while (list.size() > g_prog_cache_cap) {
    index.erase(list.back().key);
    list.pop_back();
    if (telemetry::enabled()) {
      telemetry::metrics().lang_cache_evictions.inc();
    }
  }
  telemetry::metrics().lang_cache_programs.set(
      static_cast<int64_t>(list.size()));
}

}  // namespace

std::shared_ptr<const CompiledProgram> compile_text_shared(std::string_view src) {
  {
    std::lock_guard<std::mutex> lock(g_prog_cache_mu);
    auto& index = prog_cache_index();
    auto it = index.find(src);
    if (it != index.end()) {
      auto& list = prog_cache_list();
      list.splice(list.begin(), list, it->second);  // mark most recent
      return it->second->prog;
    }
  }
  // Compile outside the lock: a malformed program throws without
  // poisoning the cache, and a slow compile doesn't serialize unrelated
  // installs. A racing duplicate compile is harmless — first insert wins.
  auto compiled = std::make_shared<const CompiledProgram>(compile_text(src));
  std::lock_guard<std::mutex> lock(g_prog_cache_mu);
  auto& index = prog_cache_index();
  if (auto it = index.find(src); it != index.end()) {
    auto& list = prog_cache_list();
    list.splice(list.begin(), list, it->second);
    return it->second->prog;
  }
  if (g_prog_cache_cap == 0) return compiled;  // caching disabled
  auto& list = prog_cache_list();
  list.push_front(ProgramCacheEntry{std::string(src), std::move(compiled)});
  index.emplace(list.front().key, list.begin());
  prog_cache_trim();
  return list.front().prog;
}

void set_program_cache_capacity(size_t cap) {
  std::lock_guard<std::mutex> lock(g_prog_cache_mu);
  g_prog_cache_cap = cap;
  prog_cache_trim();
}

size_t program_cache_capacity() {
  std::lock_guard<std::mutex> lock(g_prog_cache_mu);
  return g_prog_cache_cap;
}

size_t program_cache_size() {
  std::lock_guard<std::mutex> lock(g_prog_cache_mu);
  return prog_cache_list().size();
}

void clear_program_cache() {
  std::lock_guard<std::mutex> lock(g_prog_cache_mu);
  prog_cache_index().clear();
  prog_cache_list().clear();
  telemetry::metrics().lang_cache_programs.set(0);
}

std::vector<double> bind_vars(const CompiledProgram& prog,
                              const std::vector<std::string>& names,
                              const std::vector<double>& values) {
  std::vector<double> out(prog.num_vars(), 0.0);
  for (size_t i = 0; i < names.size() && i < values.size(); ++i) {
    const int idx = prog.var_index(names[i]);
    if (idx < 0) {
      throw ProgramError("install: program has no variable $" + names[i]);
    }
    out[static_cast<size_t>(idx)] = values[i];
  }
  for (const auto& name : prog.var_names) {
    const bool bound =
        std::find(names.begin(), names.end(), name) != names.end();
    if (!bound) {
      throw ProgramError("install: variable $" + name + " left unbound");
    }
  }
  return out;
}

}  // namespace ccp::lang
