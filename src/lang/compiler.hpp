// Lowers a checked AST into executable bytecode.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "lang/bytecode.hpp"

namespace ccp::lang {

namespace jit {
struct Handle;  // lang/jit/jit.hpp — owns one program's native code
}

/// Everything the datapath needs to run one installed program.
struct CompiledProgram {
  /// Evaluates every register's init expression and stores it.
  /// Packet fields read as zero during init.
  CodeBlock init_block;

  /// Runs once per ACK: evaluates updates in declaration order, storing
  /// each result immediately (sequential fold semantics, §2.4).
  CodeBlock fold_block;

  /// One compiled expression per control instruction argument
  /// (index-aligned with `control`; Report entries are empty blocks).
  std::vector<CodeBlock> control_args;
  std::vector<ControlInstr::Op> control_ops;

  /// Register metadata, index-aligned with the fold state vector.
  std::vector<std::string> fold_names;
  std::vector<bool> volatile_regs;
  std::vector<bool> urgent_regs;

  /// Indices of urgent registers (the true entries of `urgent_regs`),
  /// precomputed so the per-ACK urgency check snapshots and compares only
  /// these registers instead of the whole register file.
  std::vector<uint16_t> urgent_indices;

  /// Bit `f` is set iff any block (after optimization) reads packet
  /// field `f` via LoadPkt. The datapath uses this to skip computing
  /// expensive measurements (e.g. windowed rate estimates) the installed
  /// program never looks at.
  uint32_t pkt_fields_used = 0;

  /// Install-time variable names; the agent binds these in Install().
  std::vector<std::string> var_names;

  /// Native compilation of fold_block, attached lazily by
  /// jit::get_or_compile (mutable: the program stays logically immutable;
  /// this is a cache). Shared by every flow and datapath running this
  /// program, and destroyed with the last shared_ptr to it — so evicting
  /// the program from the compile cache frees its machine code only once
  /// no flow still holds the program. A handle with no entry point
  /// latches an emit failure (interpreter fallback, no recompile storms).
  /// All access goes through the JIT's global compile mutex.
  mutable std::shared_ptr<const jit::Handle> jit_handle;

  size_t num_folds() const { return fold_names.size(); }
  size_t num_vars() const { return var_names.size(); }
  bool reads_pkt_field(PktField f) const {
    return (pkt_fields_used >> static_cast<unsigned>(f)) & 1u;
  }
  bool has_urgent() const {
    for (bool u : urgent_regs) if (u) return true;
    return false;
  }
  int fold_index(std::string_view name) const {
    for (size_t i = 0; i < fold_names.size(); ++i) {
      if (fold_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  int var_index(std::string_view name) const {
    for (size_t i = 0; i < var_names.size(); ++i) {
      if (var_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Install-time peephole optimizer, run by compile() on every block:
///  1. fuses LoadConst feeding a binary op into a const-operand
///     superinstruction (AddC, MulC, GtC, ... EwmaC), swapping operands
///     for commutative ops and flipping comparisons when the constant is
///     on the left;
///  2. fuses a Select whose condition is `x > 0` into SelGtz;
///  3. removes dead instructions by backward liveness (StoreFold and the
///     result slot are the roots).
/// Exposed for tests; slot numbering and the constant pool are preserved.
CodeBlock optimize_block(CodeBlock block);

/// Compiles a parsed program. Runs semantic analysis first and throws
/// ProgramError on any error-severity issue.
CompiledProgram compile(const Program& prog);

/// Convenience: parse + check + compile program text.
CompiledProgram compile_text(std::string_view src);

/// Compile-once cache: returns a shared immutable program for `src`,
/// compiling only on first sight of this exact text. Thread-safe — this
/// is how datapaths on their own threads share one compiled program
/// (the FoldMachine keeps per-flow state; CompiledProgram is read-only
/// after construction). Throws ProgramError on a malformed program.
///
/// The cache is a bounded LRU (default capacity
/// kDefaultProgramCacheCapacity): under algorithm churn the
/// least-recently-installed program text is evicted (counted in
/// ccp_lang_cache_evictions_total). Eviction only drops the cache's
/// reference — flows still running the program keep it (and its JIT
/// code) alive through their own shared_ptr.
std::shared_ptr<const CompiledProgram> compile_text_shared(std::string_view src);

inline constexpr size_t kDefaultProgramCacheCapacity = 64;

/// Caps the compile_text_shared cache, evicting LRU entries if the new
/// cap is below the current size. A cap of 0 disables caching entirely
/// (every call compiles). Thread-safe.
void set_program_cache_capacity(size_t cap);
size_t program_cache_capacity();

/// Programs currently resident in the compile_text_shared cache.
size_t program_cache_size();

/// Drops every cached program (tests; live flows are unaffected).
void clear_program_cache();

/// Binds install-time variables by name into the positional vector the
/// FoldMachine consumes. Throws ProgramError on an unknown or unbound
/// variable (same contract the per-flow install path always had).
std::vector<double> bind_vars(const CompiledProgram& prog,
                              const std::vector<std::string>& names,
                              const std::vector<double>& values);

}  // namespace ccp::lang
