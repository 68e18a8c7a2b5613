#include "lang/jit/jit.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "lang/compiler.hpp"
#include "telemetry/telemetry.hpp"

#if defined(CCP_JIT_X86_64)
#include "lang/jit/code_cache.hpp"
#include "lang/jit/codegen.hpp"
#endif

namespace ccp::lang::jit {
namespace {

constexpr uint8_t kModeUnset = 0xFF;
std::atomic<uint8_t> g_mode{kModeUnset};
std::atomic<bool> g_force_fail{false};

uint8_t mode_from_env() {
  if (const char* v = std::getenv("CCP_JIT")) {
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
      return static_cast<uint8_t>(JitMode::Off);
    }
    if (std::strcmp(v, "verify") == 0) {
      return static_cast<uint8_t>(JitMode::Verify);
    }
  }
  return static_cast<uint8_t>(JitMode::On);
}

}  // namespace

void set_mode(JitMode m) {
  g_mode.store(static_cast<uint8_t>(m), std::memory_order_relaxed);
}

JitMode mode() {
  uint8_t m = g_mode.load(std::memory_order_relaxed);
  if (m == kModeUnset) [[unlikely]] {
    m = mode_from_env();
    g_mode.store(m, std::memory_order_relaxed);
  }
  return static_cast<JitMode>(m);
}

void set_force_emit_failure(bool on) {
  g_force_fail.store(on, std::memory_order_relaxed);
}

#if defined(CCP_JIT_X86_64)

bool available() { return true; }

struct Handle {
  CodeRegion region;
  FoldFn fn = nullptr;
  uint32_t code_size = 0;
  bool is_reg_cached = false;

  ~Handle() {
    // metrics() is a deliberately leaked singleton, so this is safe even
    // from static-destruction of a cached program at exit.
    if (fn != nullptr) telemetry::metrics().jit_code_bytes.sub(code_size);
  }
};

std::shared_ptr<const Handle> get_or_compile(const CompiledProgram& prog) {
  // One global mutex: compiles happen at install time (rare), and it
  // also serializes access to the mutable per-program handle slot.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);

  if (prog.jit_handle) {
    return prog.jit_handle->fn != nullptr ? prog.jit_handle : nullptr;
  }

  auto h = std::make_shared<Handle>();
  const uint64_t t0 = telemetry::now_ns();
  std::optional<CompiledBlock> cb;
  if (!g_force_fail.load(std::memory_order_relaxed)) {
    cb = compile_block(prog.fold_block);
  }
  if (cb) {
    if (auto region = CodeRegion::create(cb->code, cb->pool, cb->pool_patch_at)) {
      h->region = std::move(*region);
      h->fn = reinterpret_cast<FoldFn>(
          const_cast<void*>(h->region.entry()));
      h->code_size = static_cast<uint32_t>(cb->code.size());
      h->is_reg_cached = cb->reg_cached;
    }
  }
  const uint64_t dt = telemetry::now_ns() - t0;

  if (telemetry::enabled()) {
    auto& m = telemetry::metrics();
    if (h->fn != nullptr) {
      m.jit_compiles.inc();
      m.jit_compile_ns.record(dt);
      m.jit_code_bytes.add(h->code_size);
      // Trace payload: value = compile latency (ns); the flow field
      // carries the code size in bytes (there is no flow here).
      telemetry::trace(telemetry::TraceKind::JitCompile, h->code_size,
                       static_cast<double>(dt));
    } else {
      m.jit_fallbacks.inc();
    }
  }

  prog.jit_handle = h;  // latch success or failure alike
  return h->fn != nullptr ? prog.jit_handle : nullptr;
}

FoldFn entry(const Handle& h) { return h.fn; }
uint32_t code_bytes(const Handle& h) { return h.code_size; }
bool reg_cached(const Handle& h) { return h.is_reg_cached; }

#else  // !CCP_JIT_X86_64 — interpreter-only build or foreign arch

bool available() { return false; }

struct Handle {};

std::shared_ptr<const Handle> get_or_compile(const CompiledProgram& prog) {
  // Count the would-be compile as a fallback once per program so the
  // telemetry story is the same on every platform.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (!prog.jit_handle) {
    prog.jit_handle = std::make_shared<const Handle>();
    if (telemetry::enabled()) telemetry::metrics().jit_fallbacks.inc();
  }
  return nullptr;
}

FoldFn entry(const Handle&) { return nullptr; }
uint32_t code_bytes(const Handle&) { return 0; }
bool reg_cached(const Handle&) { return false; }

#endif

}  // namespace ccp::lang::jit
