#include "sim/fiber.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <system_error>

namespace ib12x::sim {

PageMapping Fiber::map_stack(std::size_t stack_bytes) {
  const std::size_t page = PageMapping::page_size();
  PageMapping m(page + stack_bytes);
  if (::mprotect(m.data(), page, PROT_NONE) != 0) {
    throw std::system_error(errno, std::generic_category(), "Fiber: guard page mprotect");
  }
  return m;
}

extern "C" void ib12x_fiber_entry(void* self) {
  static_cast<Fiber*>(self)->run_body_entry();
}

}  // namespace ib12x::sim

#ifdef IB12X_FIBER_FAST_SWITCH

// Minimal System V x86-64 context switch.  ucontext's swapcontext saves and
// restores the signal mask with an rt_sigprocmask syscall on every switch
// (~200 ns each); simulated processes never touch the signal mask, so a
// user-space-only switch is sufficient and ~20x cheaper.  Only the
// callee-saved integer registers and the stack pointer move; the x87/MXCSR
// control words are excluded on purpose — nothing in the simulator changes
// FP modes, and skipping them keeps the switch at a handful of cycles.
//
// ib12x_ctx_switch(save, restore): pushes the callee-saved registers, stores
// rsp through `save`, installs `restore` as the new rsp, pops and returns on
// the other stack.  A fresh fiber's stack is seeded (Fiber::seed_stack) so
// that the first "return" lands in ib12x_ctx_entry with the Fiber* parked in
// r12; the entry thunk forwards it to ib12x_fiber_entry and never returns.
asm(R"(
        .text
        .globl  ib12x_ctx_switch
        .type   ib12x_ctx_switch, @function
ib12x_ctx_switch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        retq
        .size   ib12x_ctx_switch, .-ib12x_ctx_switch

        .globl  ib12x_ctx_entry
        .type   ib12x_ctx_entry, @function
ib12x_ctx_entry:
        movq    %r12, %rdi
        andq    $-16, %rsp
        callq   ib12x_fiber_entry
        ud2
        .size   ib12x_ctx_entry, .-ib12x_ctx_entry
)");

#endif  // IB12X_FIBER_FAST_SWITCH
