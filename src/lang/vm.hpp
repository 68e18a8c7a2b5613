// The datapath virtual machine.
//
// Executes compiled fold blocks per ACK and evaluates control-instruction
// argument expressions. Arithmetic is total: division by zero yields 0,
// log/sqrt of out-of-domain values yield 0 — a misbehaving program can
// produce garbage numbers but can never crash the datapath (§2.2, §5
// "Is CCP safe to deploy?"). The agent-side policy layer clamps the
// resulting rate/cwnd values.
#pragma once

#include <span>
#include <vector>

#include "lang/bytecode.hpp"
#include "lang/compiler.hpp"
#include "lang/jit/jit.hpp"
#include "lang/pkt_fields.hpp"

namespace ccp::lang {

/// Evaluates one CodeBlock. `fold_state` is read and (for StoreFold)
/// written in place; `vars` are the install-time bindings. Returns the
/// value in the block's result slot (0.0 for empty blocks).
///
/// `scratch` is caller-provided to keep the per-ACK path allocation-free;
/// it is resized on first use per program.
double eval_block(const CodeBlock& block, std::span<double> fold_state,
                  const PktInfo& pkt, std::span<const double> vars,
                  std::vector<double>& scratch);

/// Per-flow fold-machine state: owns the fold register file and scratch
/// space, applies init/update/report-reset semantics.
class FoldMachine {
 public:
  FoldMachine() = default;

  /// Binds a program and variable values, and runs the init block.
  void install(const CompiledProgram* prog, std::vector<double> vars);

  /// Re-binds variable values without resetting fold state (the agent's
  /// UpdateFields message). Lengths must match the installed program.
  void update_vars(std::vector<double> vars);

  /// Folds one ACK's measurements into the register file.
  /// Returns true if any `urgent` register changed value.
  /// Inline: this is the datapath's per-ACK entry into the VM; the
  /// urgency bookkeeping around eval_block should not cost a call.
  bool on_packet(const PktInfo& pkt) {
    if (prog_ == nullptr) return false;
    const auto& urgent = prog_->urgent_indices;
    if (urgent.empty()) {
      exec_fold(pkt);
      return false;
    }
    // Snapshot only the urgent registers (typically 1-2 of dozens) rather
    // than the whole register file; `before_` is a member sized once at
    // install so the per-ACK path stays allocation-free.
    for (size_t i = 0; i < urgent.size(); ++i) before_[i] = state_[urgent[i]];
    exec_fold(pkt);
    for (size_t i = 0; i < urgent.size(); ++i) {
      if (state_[urgent[i]] != before_[i]) return true;
    }
    return false;
  }

  /// Evaluates the argument expression of control instruction `idx`.
  double eval_control_arg(size_t idx, const PktInfo& pkt);

  /// Called after a report has been emitted: volatile registers reset to
  /// their init values (evaluated against a zero packet, as at install).
  void reset_volatile();

  const std::vector<double>& state() const { return state_; }
  const CompiledProgram* program() const { return prog_; }
  bool installed() const { return prog_ != nullptr; }

  /// True when per-ACK folds run native code (JitMode On or Verify and
  /// the program compiled successfully at install).
  bool jit_active() const { return jit_fn_ != nullptr; }
  /// True when every fold also cross-checks the interpreter (Verify).
  bool jit_verifying() const { return jit_fn_ != nullptr && jit_verify_; }

 private:
  /// Per-ACK fold dispatch: direct native call in the common JIT-on
  /// case; out-of-line jit_exec handles sampling + Verify; otherwise the
  /// interpreter. Mode is resolved at install, not here.
  void exec_fold(const PktInfo& pkt) {
    if (jit_fn_ != nullptr) {
      jit_exec(pkt);
      return;
    }
    eval_block(prog_->fold_block, state_, pkt, vars_, scratch_);
  }

  /// Runs the native fold (with 1/1024-sampled jit_exec_ns timing), or
  /// in Verify mode both engines with a bitwise fold-state compare.
  /// Out of line: keeps telemetry out of this header.
  void jit_exec(const PktInfo& pkt);

  const CompiledProgram* prog_ = nullptr;
  std::vector<double> vars_;
  std::vector<double> state_;
  std::vector<double> init_snapshot_;  // state right after init, for volatile reset
  std::vector<double> scratch_;
  std::vector<double> before_;  // urgent-register snapshot, one per urgent_indices entry

  // -- native execution (lang/jit) --
  std::shared_ptr<const jit::Handle> jit_handle_;  // keeps the code alive
  jit::FoldFn jit_fn_ = nullptr;                   // null: interpret
  bool jit_verify_ = false;                        // JitMode::Verify at install
  std::vector<double> verify_state_;    // shadow fold state for Verify
  std::vector<double> verify_scratch_;  // shadow slot file for Verify
};

}  // namespace ccp::lang
