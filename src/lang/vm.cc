#include "lang/vm.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace ccp::lang {
namespace {

inline double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }
inline double safe_sqrt(double a) { return a <= 0.0 ? 0.0 : std::sqrt(a); }
inline double safe_log(double a) { return a <= 0.0 ? 0.0 : std::log(a); }
inline double safe_pow(double a, double b) {
  // pow of a negative base with fractional exponent is NaN; clamp to 0
  // (total arithmetic — see vm.hpp).
  const double v = std::pow(a, b);
  return std::isfinite(v) ? v : 0.0;
}

double eval_block_impl(const CodeBlock& block, std::span<double> fold_state,
                       const PktInfo& pkt, std::span<const double> vars,
                       std::vector<double>& scratch) {
  if (block.code.empty()) return 0.0;
  // A nonempty block with no slots cannot have been produced by the
  // compiler (every instruction reads or writes a slot); treat it as
  // degenerate rather than indexing an empty scratch file.
  if (block.n_slots == 0) return 0.0;
  if (scratch.size() < block.n_slots) scratch.resize(block.n_slots);
  double* s = scratch.data();
  const double* k = block.consts.data();

  const Instr* ip = block.code.data();
  const Instr* const end = ip + block.code.size();

// Dispatch. With GCC/Clang, use a computed-goto threaded interpreter:
// each handler jumps straight to the next instruction's handler, giving
// the branch predictor one indirect-branch site per opcode instead of a
// single shared switch dispatch — a sizable win for the per-ACK loop,
// the hottest code in the datapath. Other compilers get an equivalent
// switch loop from the same handler bodies.
#if defined(__GNUC__) || defined(__clang__)
  static const void* const kJump[] = {
      &&lbl_LoadConst, &&lbl_LoadFold, &&lbl_LoadPkt, &&lbl_LoadVar,
      &&lbl_Neg, &&lbl_Not, &&lbl_Sqrt, &&lbl_Abs, &&lbl_Log, &&lbl_Exp,
      &&lbl_Cbrt, &&lbl_Add, &&lbl_Sub, &&lbl_Mul, &&lbl_Div, &&lbl_Pow,
      &&lbl_Min, &&lbl_Max, &&lbl_Lt, &&lbl_Le, &&lbl_Gt, &&lbl_Ge,
      &&lbl_Eq, &&lbl_Ne, &&lbl_And, &&lbl_Or, &&lbl_Select, &&lbl_Ewma,
      &&lbl_StoreFold, &&lbl_AddC, &&lbl_SubC, &&lbl_MulC, &&lbl_DivC,
      &&lbl_MinC, &&lbl_MaxC, &&lbl_LtC, &&lbl_LeC, &&lbl_GtC, &&lbl_GeC,
      &&lbl_EqC, &&lbl_NeC, &&lbl_EwmaC, &&lbl_SelGtz};
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                    static_cast<size_t>(OpCode::SelGtz) + 1,
                "jump table must cover every opcode, in enum order");
#define VM_CASE(name) lbl_##name
#define VM_NEXT                                    \
  if (++ip == end) goto vm_done;                   \
  goto* kJump[static_cast<uint8_t>(ip->op)]
#define VM_BEGIN goto* kJump[static_cast<uint8_t>(ip->op)];
#define VM_END vm_done:;
#else
#define VM_CASE(name) case OpCode::name
#define VM_NEXT continue
#define VM_BEGIN                 \
  for (; ip != end; ++ip) {      \
    switch (ip->op) {
#define VM_END \
  }            \
  }
#endif
#define IN (*ip)

  VM_BEGIN
  VM_CASE(LoadConst): s[IN.dst] = k[IN.a]; VM_NEXT;
  VM_CASE(LoadFold): s[IN.dst] = fold_state[IN.a]; VM_NEXT;
  VM_CASE(LoadPkt): s[IN.dst] = pkt.get(static_cast<PktField>(IN.a)); VM_NEXT;
  VM_CASE(LoadVar): s[IN.dst] = vars[IN.a]; VM_NEXT;
  VM_CASE(Neg): s[IN.dst] = -s[IN.a]; VM_NEXT;
  VM_CASE(Not): s[IN.dst] = s[IN.a] == 0.0 ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Sqrt): s[IN.dst] = safe_sqrt(s[IN.a]); VM_NEXT;
  VM_CASE(Abs): s[IN.dst] = std::fabs(s[IN.a]); VM_NEXT;
  VM_CASE(Log): s[IN.dst] = safe_log(s[IN.a]); VM_NEXT;
  VM_CASE(Exp): s[IN.dst] = std::exp(s[IN.a]); VM_NEXT;
  VM_CASE(Cbrt): s[IN.dst] = std::cbrt(s[IN.a]); VM_NEXT;
  VM_CASE(Add): s[IN.dst] = s[IN.a] + s[IN.b]; VM_NEXT;
  VM_CASE(Sub): s[IN.dst] = s[IN.a] - s[IN.b]; VM_NEXT;
  VM_CASE(Mul): s[IN.dst] = s[IN.a] * s[IN.b]; VM_NEXT;
  VM_CASE(Div): s[IN.dst] = safe_div(s[IN.a], s[IN.b]); VM_NEXT;
  VM_CASE(Pow): s[IN.dst] = safe_pow(s[IN.a], s[IN.b]); VM_NEXT;
  VM_CASE(Min): s[IN.dst] = s[IN.a] < s[IN.b] ? s[IN.a] : s[IN.b]; VM_NEXT;
  VM_CASE(Max): s[IN.dst] = s[IN.a] > s[IN.b] ? s[IN.a] : s[IN.b]; VM_NEXT;
  VM_CASE(Lt): s[IN.dst] = s[IN.a] < s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Le): s[IN.dst] = s[IN.a] <= s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Gt): s[IN.dst] = s[IN.a] > s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Ge): s[IN.dst] = s[IN.a] >= s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Eq): s[IN.dst] = s[IN.a] == s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(Ne): s[IN.dst] = s[IN.a] != s[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(And):
    s[IN.dst] = (s[IN.a] != 0.0 && s[IN.b] != 0.0) ? 1.0 : 0.0;
    VM_NEXT;
  VM_CASE(Or):
    s[IN.dst] = (s[IN.a] != 0.0 || s[IN.b] != 0.0) ? 1.0 : 0.0;
    VM_NEXT;
  VM_CASE(Select): s[IN.dst] = s[IN.a] != 0.0 ? s[IN.b] : s[IN.c]; VM_NEXT;
  VM_CASE(Ewma):
    s[IN.dst] = (1.0 - s[IN.c]) * s[IN.a] + s[IN.c] * s[IN.b];
    VM_NEXT;
  VM_CASE(StoreFold): fold_state[IN.a] = s[IN.b]; VM_NEXT;
  // Optimizer superinstructions: right operand from the const pool.
  VM_CASE(AddC): s[IN.dst] = s[IN.a] + k[IN.b]; VM_NEXT;
  VM_CASE(SubC): s[IN.dst] = s[IN.a] - k[IN.b]; VM_NEXT;
  VM_CASE(MulC): s[IN.dst] = s[IN.a] * k[IN.b]; VM_NEXT;
  VM_CASE(DivC): s[IN.dst] = safe_div(s[IN.a], k[IN.b]); VM_NEXT;
  VM_CASE(MinC): s[IN.dst] = s[IN.a] < k[IN.b] ? s[IN.a] : k[IN.b]; VM_NEXT;
  VM_CASE(MaxC): s[IN.dst] = s[IN.a] > k[IN.b] ? s[IN.a] : k[IN.b]; VM_NEXT;
  VM_CASE(LtC): s[IN.dst] = s[IN.a] < k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(LeC): s[IN.dst] = s[IN.a] <= k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(GtC): s[IN.dst] = s[IN.a] > k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(GeC): s[IN.dst] = s[IN.a] >= k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(EqC): s[IN.dst] = s[IN.a] == k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(NeC): s[IN.dst] = s[IN.a] != k[IN.b] ? 1.0 : 0.0; VM_NEXT;
  VM_CASE(EwmaC):
    s[IN.dst] = (1.0 - k[IN.c]) * s[IN.a] + k[IN.c] * s[IN.b];
    VM_NEXT;
  VM_CASE(SelGtz): s[IN.dst] = s[IN.a] > 0.0 ? s[IN.b] : s[IN.c]; VM_NEXT;
  VM_END

#undef IN
#undef VM_BEGIN
#undef VM_END
#undef VM_NEXT
#undef VM_CASE

  return block.result_slot < block.n_slots ? s[block.result_slot] : 0.0;
}

}  // namespace

double eval_block(const CodeBlock& block, std::span<double> fold_state,
                  const PktInfo& pkt, std::span<const double> vars,
                  std::vector<double>& scratch) {
  // Sampled exec-time histogram: 1 in 1024 invocations pays two clock
  // reads; the other 1023 pay one thread-local increment and a test.
  // Per-ACK timing would double the cost of short programs — the VM run
  // itself is only tens of nanoseconds.
  thread_local uint32_t sample_tick = 0;
  if ((++sample_tick & 1023u) == 0 && telemetry::enabled()) [[unlikely]] {
    const uint64_t t0 = telemetry::now_ns();
    const double r = eval_block_impl(block, fold_state, pkt, vars, scratch);
    telemetry::metrics().vm_exec_ns.record(telemetry::now_ns() - t0);
    return r;
  }
  return eval_block_impl(block, fold_state, pkt, vars, scratch);
}

void FoldMachine::install(const CompiledProgram* prog, std::vector<double> vars) {
  if (prog == nullptr) throw std::invalid_argument("FoldMachine: null program");
  if (vars.size() != prog->num_vars()) {
    throw std::invalid_argument("FoldMachine: program expects " +
                                std::to_string(prog->num_vars()) + " vars, got " +
                                std::to_string(vars.size()));
  }
  prog_ = prog;
  vars_ = std::move(vars);
  state_.assign(prog->num_folds(), 0.0);
  before_.assign(prog->urgent_indices.size(), 0.0);
  const PktInfo zero_pkt{};
  eval_block(prog->init_block, state_, zero_pkt, vars_, scratch_);
  init_snapshot_ = state_;

  // Native execution: the JitMode is consulted here, once per install —
  // never on the per-ACK path. Init and control-arg blocks stay on the
  // interpreter (they run rarely); only the per-ACK fold block is
  // lowered. Any compile failure leaves jit_fn_ null and the machine
  // interpreting, exactly as before.
  jit_handle_.reset();
  jit_fn_ = nullptr;
  jit_verify_ = false;
  const jit::JitMode m = jit::mode();
  if (m != jit::JitMode::Off && jit::available() &&
      !prog->fold_block.code.empty()) {
    jit_handle_ = jit::get_or_compile(*prog);
    if (jit_handle_) {
      jit_fn_ = jit::entry(*jit_handle_);
      jit_verify_ = (m == jit::JitMode::Verify);
      // The native code indexes the scratch array directly (memory-slot
      // mode) without the interpreter's lazy resize; presize it here so
      // the per-ACK path stays allocation-free.
      if (scratch_.size() < prog->fold_block.n_slots) {
        scratch_.resize(prog->fold_block.n_slots);
      }
      if (jit_verify_) {
        verify_state_.assign(state_.size(), 0.0);
        verify_scratch_.assign(prog->fold_block.n_slots, 0.0);
      }
    }
  }
}

void FoldMachine::update_vars(std::vector<double> vars) {
  if (prog_ == nullptr) throw std::logic_error("FoldMachine: no program installed");
  if (vars.size() != prog_->num_vars()) {
    throw std::invalid_argument("FoldMachine: var count mismatch");
  }
  vars_ = std::move(vars);
}

void FoldMachine::jit_exec(const PktInfo& pkt) {
  const double* pkt_mem = jit::pkt_ptr(pkt);
  if (!jit_verify_) {
    // Same 1/1024 sampling scheme as eval_block, into the JIT's own
    // histogram so the two engines' latency profiles stay comparable.
    thread_local uint32_t sample_tick = 0;
    if ((++sample_tick & 1023u) == 0 && telemetry::enabled()) [[unlikely]] {
      const uint64_t t0 = telemetry::now_ns();
      jit_fn_(state_.data(), pkt_mem, vars_.data(), scratch_.data());
      telemetry::metrics().jit_exec_ns.record(telemetry::now_ns() - t0);
      return;
    }
    jit_fn_(state_.data(), pkt_mem, vars_.data(), scratch_.data());
    return;
  }
  // Verify: native code folds into a shadow copy of the state, the
  // interpreter folds authoritatively, and the two register files must
  // match bit for bit (as must the result-slot value). The interpreter
  // stays authoritative so a miscompile can skew only the mismatch
  // counter, never the congestion response.
  std::memcpy(verify_state_.data(), state_.data(),
              state_.size() * sizeof(double));
  const double jit_result =
      jit_fn_(verify_state_.data(), pkt_mem, vars_.data(), verify_scratch_.data());
  const double vm_result =
      eval_block(prog_->fold_block, state_, pkt, vars_, scratch_);
  const bool state_ok =
      std::memcmp(verify_state_.data(), state_.data(),
                  state_.size() * sizeof(double)) == 0;
  const bool result_ok = std::bit_cast<uint64_t>(jit_result) ==
                         std::bit_cast<uint64_t>(vm_result);
  if (!(state_ok && result_ok)) [[unlikely]] {
    telemetry::metrics().jit_verify_mismatches.inc();
  }
}

double FoldMachine::eval_control_arg(size_t idx, const PktInfo& pkt) {
  if (prog_ == nullptr) throw std::logic_error("FoldMachine: no program installed");
  return eval_block(prog_->control_args[idx], state_, pkt, vars_, scratch_);
}

void FoldMachine::reset_volatile() {
  if (prog_ == nullptr) return;
  for (size_t i = 0; i < state_.size(); ++i) {
    if (prog_->volatile_regs[i]) state_[i] = init_snapshot_[i];
  }
}

}  // namespace ccp::lang
