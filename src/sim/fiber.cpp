#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

// Every stack switch is announced to the sanitizers: ASan must learn the
// bounds of the stack it lands on (or it misreports the frames it unpoisons
// when an exception is thrown), and TSan keeps one shadow context per fiber
// so that accesses before and after a switch are ordered.
#if defined(__SANITIZE_ADDRESS__)
#define BCS_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define BCS_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(BCS_FIBER_ASAN)
#define BCS_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(BCS_FIBER_TSAN)
#define BCS_FIBER_TSAN 1
#endif
#endif

#ifdef BCS_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef BCS_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace bcs::sim {

struct Fiber::Stack {
  ucontext_t fiber;    ///< the fiber's registers while it is suspended
  ucontext_t resumer;  ///< the resumer's registers while the fiber runs
  void* mapping = nullptr;
  std::size_t mapping_size = 0;
#ifdef BCS_FIBER_ASAN
  void* fake_stack = nullptr;  ///< the fiber's ASan fake stack while suspended
  const void* resumer_bottom = nullptr;
  std::size_t resumer_size = 0;
#endif
#ifdef BCS_FIBER_TSAN
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
#endif

  /// Lowest address of the usable stack (just above the guard page).
  char* bottom() const { return static_cast<char*>(mapping) + pageSize(); }

  static std::size_t pageSize() {
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }
};

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {}

Fiber::~Fiber() {
  if (stack_ == nullptr) return;  // never resumed, or already finished
  // Unwind the suspended body: its yield() observes kill_ and throws.
  kill_ = true;
  switchIn();
  releaseStack();
}

void Fiber::resume() {
  if (finished_) return;
  if (stack_ == nullptr) {
    // Layout: [guard page][kStackSize of stack][Stack, page-rounded].
    const std::size_t page = Stack::pageSize();
    const std::size_t size =
        page + kStackSize + (sizeof(Stack) + page - 1) / page * page;
    void* mapping = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) throw std::bad_alloc();
    if (mprotect(mapping, page, PROT_NONE) != 0) {
      munmap(mapping, size);
      throw std::bad_alloc();
    }
    stack_ = new (static_cast<char*>(mapping) + page + kStackSize) Stack;
    stack_->mapping = mapping;
    stack_->mapping_size = size;
#ifdef BCS_FIBER_TSAN
    stack_->tsan_fiber = __tsan_create_fiber(0);
#endif
    getcontext(&stack_->fiber);
    stack_->fiber.uc_stack.ss_sp = stack_->bottom();
    stack_->fiber.uc_stack.ss_size = kStackSize;
    stack_->fiber.uc_link = nullptr;  // run() never returns
    // makecontext passes int arguments only: split the pointer in two.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&stack_->fiber, reinterpret_cast<void (*)()>(&Fiber::entry),
                2, static_cast<unsigned>(static_cast<std::uint64_t>(self) >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
  }
  switchIn();
  if (finished_) releaseStack();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Fiber::yield() {
  switchOut(false);
  if (kill_) throw FiberKilled{};
}

void Fiber::entry(unsigned hi, unsigned lo) {
  const std::uint64_t self = (static_cast<std::uint64_t>(hi) << 32) | lo;
  reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(self))->run();
}

void Fiber::run() {
  enteredFiber();
  try {
    body_();
  } catch (const FiberKilled&) {
    // Normal forced unwind; not an error.
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
  switchOut(true);
  std::abort();  // a finished fiber is never switched back into
}

void Fiber::switchIn() {
  Stack& s = *stack_;
#ifdef BCS_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, s.bottom(), kStackSize);
#endif
#ifdef BCS_FIBER_TSAN
  s.tsan_resumer = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(s.tsan_fiber, 0);
#endif
  swapcontext(&s.resumer, &s.fiber);
#ifdef BCS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switchOut(bool finishing) {
  Stack& s = *stack_;
#ifdef BCS_FIBER_ASAN
  // A finishing fiber passes no save slot, so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(finishing ? nullptr : &s.fake_stack,
                                 s.resumer_bottom, s.resumer_size);
#else
  (void)finishing;
#endif
#ifdef BCS_FIBER_TSAN
  __tsan_switch_to_fiber(s.tsan_resumer, 0);
#endif
  swapcontext(&s.fiber, &s.resumer);
  enteredFiber();
}

void Fiber::enteredFiber() {
#ifdef BCS_FIBER_ASAN
  // The resumer may be a different thread each time: relearn its stack.
  Stack& s = *stack_;
  __sanitizer_finish_switch_fiber(s.fake_stack, &s.resumer_bottom,
                                  &s.resumer_size);
#endif
}

void Fiber::releaseStack() {
#ifdef BCS_FIBER_TSAN
  __tsan_destroy_fiber(stack_->tsan_fiber);
#endif
  void* mapping = stack_->mapping;
  const std::size_t size = stack_->mapping_size;
  stack_->~Stack();
  stack_ = nullptr;
  munmap(mapping, size);
}

}  // namespace bcs::sim
