// Bytecode -> x86-64 lowering for per-ACK fold blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lang/bytecode.hpp"

namespace ccp::lang::jit {

/// Output of one block compilation: raw machine code plus the constant
/// pool the code addresses through r15. `pool_patch_at` is the offset of
/// the movabs imm64 that the code cache patches with the pool's final
/// absolute address. `reg_cached` records whether the block's scratch
/// slots lived entirely in xmm registers (the common small-program case)
/// or spilled to the caller-provided scratch array.
struct CompiledBlock {
  std::vector<uint8_t> code;
  std::vector<double> pool;
  size_t pool_patch_at = 0;
  bool reg_cached = false;
};

/// Lowers an optimized CodeBlock to native code implementing
///   double fn(double* fold, const double* pkt, const double* vars,
///             double* scratch)
/// with semantics bit-identical to eval_block (same total arithmetic,
/// same NaN behavior, same evaluation order; no FMA contraction).
/// Returns nullopt if the block uses an opcode the emitter cannot lower
/// (none today, but the failure path is load-bearing: it is the
/// interpreter-fallback trigger and is exercised by tests via the forced
/// emit-failure hook in jit.hpp).
std::optional<CompiledBlock> compile_block(const CodeBlock& block);

}  // namespace ccp::lang::jit
