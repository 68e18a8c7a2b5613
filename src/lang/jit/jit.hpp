// Public surface of the fold-program JIT.
//
// The datapath asks for native code at program-install time
// (FoldMachine::install -> get_or_compile); the per-ACK path then calls
// the returned function pointer directly. Compilation happens once per
// CompiledProgram — the handle is cached on the program itself, so every
// flow on every shard that shares the program (via compile_text_shared)
// shares one code region, and the code dies exactly when the last user
// of the program does.
//
// Failure is always transparent: on non-x86-64 builds, with
// -DCCP_ENABLE_JIT=OFF, on an emit/mmap failure, or under the forced
// test hook, get_or_compile returns null, the failure is latched on the
// program (no recompile storms), ccp_jit_fallbacks_total ticks, and the
// caller keeps interpreting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "lang/pkt_fields.hpp"

namespace ccp::lang {
struct CompiledProgram;
}

namespace ccp::lang::jit {

/// Runtime dispatch mode, consulted at program install (not per ACK):
///   Off    — always interpret.
///   On     — native code when available, interpreter otherwise.
///   Verify — run BOTH per ACK: the JIT on a shadow copy of the fold
///            state, the interpreter authoritatively; any bit difference
///            in fold state or result ticks ccp_jit_verify_mismatches.
/// Overridable via CCP_JIT=off|on|verify (read on first use).
enum class JitMode : uint8_t { Off, On, Verify };

void set_mode(JitMode m);
JitMode mode();

/// True when native execution is possible at all in this build/arch.
bool available();

/// Test hook: makes every subsequent compile fail, exercising the
/// interpreter-fallback latch on real install paths.
void set_force_emit_failure(bool on);

/// Signature of a compiled fold block. Mirrors eval_block: folds one
/// ACK into `fold_state` in place and returns the result-slot value.
/// `scratch` must hold at least the block's n_slots doubles (unused in
/// reg-cached mode but always passed).
using FoldFn = double (*)(double* fold_state, const double* pkt,
                          const double* vars, double* scratch);

/// Opaque owner of one program's code region (definition in jit.cc).
struct Handle;

/// Returns the shared native compilation of prog.fold_block, compiling
/// on first call, or null if the JIT is unavailable or this program
/// latched a failure. Thread-safe (global compile mutex); never throws.
std::shared_ptr<const Handle> get_or_compile(const CompiledProgram& prog);

FoldFn entry(const Handle& h);
uint32_t code_bytes(const Handle& h);
bool reg_cached(const Handle& h);

/// The generated code reads packet fields as a flat double array
/// (LoadPkt f => load [pkt + 8f]); these asserts pin PktInfo to that
/// layout in PktField enum order.
static_assert(std::is_standard_layout_v<PktInfo>);
static_assert(sizeof(PktInfo) == sizeof(double) * kNumPktFields);
static_assert(offsetof(PktInfo, rtt_us) ==
              sizeof(double) * static_cast<size_t>(PktField::RttUs));
static_assert(offsetof(PktInfo, snd_rate_bps) ==
              sizeof(double) * static_cast<size_t>(PktField::SndRateBps));
static_assert(offsetof(PktInfo, mss) ==
              sizeof(double) * static_cast<size_t>(PktField::Mss));
static_assert(offsetof(PktInfo, rate_bps) ==
              sizeof(double) * static_cast<size_t>(PktField::RateBps));

inline const double* pkt_ptr(const PktInfo& p) {
  return reinterpret_cast<const double*>(&p);
}

}  // namespace ccp::lang::jit
