// Minimal x86-64 instruction emitter for the template JIT.
//
// Emits exactly the handful of encodings the fold-program codegen needs:
// GPR push/pop/mov/movabs/call for the prologue and helper calls, and
// scalar-double SSE2 (movsd/addsd/.../cmpsd/andpd/sqrtsd) for the
// instruction bodies. Everything is appended to an in-memory byte
// buffer; the code cache copies the result into an executable mapping
// and patches the one absolute address (the constant pool base).
//
// Encoding notes (Intel SDM Vol. 2):
//  - SSE scalar ops are [66|F2] [REX] 0F <op> ModRM; the legacy operand
//    prefix precedes REX.
//  - Memory operands are always [base + disp] with an explicit disp8 or
//    disp32. When (base & 7) == 4 (rsp/r12) a SIB byte is required;
//    (base & 7) == 5 (rbp/r13) merely forbids the no-displacement form,
//    which we never use.
#pragma once

#include <cstdint>
#include <vector>

namespace ccp::lang::jit {

enum Gpr : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// An xmm register number, 0..15.
using Xmm = uint8_t;

class Asm {
 public:
  const std::vector<uint8_t>& code() const { return buf_; }
  size_t size() const { return buf_.size(); }

  // --- GPR / control flow ---

  void push(Gpr r) {
    if (r >= 8) byte(0x41);
    byte(0x50 + (r & 7));
  }
  void pop(Gpr r) {
    if (r >= 8) byte(0x41);
    byte(0x58 + (r & 7));
  }
  /// mov dst, src (64-bit).
  void mov_rr(Gpr dst, Gpr src) {
    rex(true, src, dst);
    byte(0x89);
    modrm_rr(src, dst);
  }
  /// movabs dst, imm64. Returns the buffer offset of the immediate so
  /// the caller can patch it once the final address is known.
  size_t mov_ri64(Gpr dst, uint64_t imm) {
    byte(0x48 | (dst >= 8 ? 0x01 : 0x00));
    byte(0xB8 + (dst & 7));
    const size_t at = buf_.size();
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(imm >> (8 * i)));
    return at;
  }
  void patch_u64(size_t at, uint64_t imm) {
    for (int i = 0; i < 8; ++i) {
      buf_[at + static_cast<size_t>(i)] = static_cast<uint8_t>(imm >> (8 * i));
    }
  }
  void sub_rsp(uint8_t imm) { byte(0x48); byte(0x83); byte(0xEC); byte(imm); }
  void add_rsp(uint8_t imm) { byte(0x48); byte(0x83); byte(0xC4); byte(imm); }
  void call(Gpr r) {
    if (r >= 8) byte(0x41);
    byte(0xFF);
    modrm_rr(2, r);  // /2 = CALL r/m64
  }
  void ret() { byte(0xC3); }

  // --- scalar double SSE2 ---

  /// movsd xmm, [base + disp]
  void movsd_load(Xmm dst, Gpr base, int32_t disp) { sse_rm(0xF2, 0x10, dst, base, disp); }
  /// movsd [base + disp], xmm
  void movsd_store(Gpr base, int32_t disp, Xmm src) { sse_rm(0xF2, 0x11, src, base, disp); }
  /// movsd xmm, xmm (merge semantics on the upper half — fine, only the
  /// low lane ever carries a value here).
  void movsd_rr(Xmm dst, Xmm src) { sse_rr(0xF2, 0x10, dst, src); }
  /// movapd xmm, xmm — full-width register copy.
  void movapd_rr(Xmm dst, Xmm src) { sse_rr(0x66, 0x28, dst, src); }

  void addsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x58, d, s); }
  void subsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x5C, d, s); }
  void mulsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x59, d, s); }
  void divsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x5E, d, s); }
  void minsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x5D, d, s); }
  void maxsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x5F, d, s); }
  void sqrtsd_rr(Xmm d, Xmm s) { sse_rr(0xF2, 0x51, d, s); }

  void addsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x58, d, b, disp); }
  void subsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x5C, d, b, disp); }
  void mulsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x59, d, b, disp); }
  void divsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x5E, d, b, disp); }
  void minsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x5D, d, b, disp); }
  void maxsd_rm(Xmm d, Gpr b, int32_t disp) { sse_rm(0xF2, 0x5F, d, b, disp); }

  /// cmpsd xmm, xmm, pred — pred: 0 EQ, 1 LT, 2 LE, 4 NEQ (unordered
  /// compares as true only for NEQ, matching the interpreter's C
  /// comparison semantics exactly).
  void cmpsd_rr(Xmm d, Xmm s, uint8_t pred) { sse_rr(0xF2, 0xC2, d, s); byte(pred); }
  void cmpsd_rm(Xmm d, Gpr b, int32_t disp, uint8_t pred) {
    sse_rm(0xF2, 0xC2, d, b, disp);
    byte(pred);
  }

  // Bitwise ops on the full register; operands' upper lanes are always
  // zero or don't-care in this codegen.
  void andpd_rr(Xmm d, Xmm s) { sse_rr(0x66, 0x54, d, s); }
  void andnpd_rr(Xmm d, Xmm s) { sse_rr(0x66, 0x55, d, s); }
  void orpd_rr(Xmm d, Xmm s) { sse_rr(0x66, 0x56, d, s); }
  void xorpd_rr(Xmm d, Xmm s) { sse_rr(0x66, 0x57, d, s); }

 private:
  void byte(uint8_t b) { buf_.push_back(b); }

  /// Optional REX for a reg-reg form (reg = ModRM.reg, rm = ModRM.rm).
  void rex_opt(int reg, int rm) {
    const uint8_t r = (reg >= 8) ? 0x04 : 0x00;
    const uint8_t b = (rm >= 8) ? 0x01 : 0x00;
    if (r | b) byte(0x40 | r | b);
  }
  /// Mandatory REX.W form (64-bit GPR ops).
  void rex(bool w, int reg, int rm) {
    byte(0x40 | (w ? 0x08 : 0x00) | ((reg >= 8) ? 0x04 : 0x00) |
         ((rm >= 8) ? 0x01 : 0x00));
  }
  void modrm_rr(int reg, int rm) {
    byte(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  void sse_rr(uint8_t prefix, uint8_t op, int reg, int rm) {
    byte(prefix);
    rex_opt(reg, rm);
    byte(0x0F);
    byte(op);
    modrm_rr(reg, rm);
  }

  void sse_rm(uint8_t prefix, uint8_t op, int reg, Gpr base, int32_t disp) {
    byte(prefix);
    rex_opt(reg, base);
    byte(0x0F);
    byte(op);
    const bool need_sib = (base & 7) == 4;
    const bool small = disp >= -128 && disp <= 127;
    const uint8_t mod = small ? 0x40 : 0x80;
    byte(static_cast<uint8_t>(mod | ((reg & 7) << 3) | (need_sib ? 4 : (base & 7))));
    if (need_sib) byte(0x24);  // scale=1, no index, base=rsp/r12
    if (small) {
      byte(static_cast<uint8_t>(disp));
    } else {
      for (int i = 0; i < 4; ++i) byte(static_cast<uint8_t>(disp >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

}  // namespace ccp::lang::jit
