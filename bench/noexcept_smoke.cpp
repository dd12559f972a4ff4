// Compile-and-run proof that the simulator's hot-path layers — the event
// engine, the envelope-hash MSM match indexes, and the payload pool —
// stay fully usable under -fno-exceptions (fatal errors route through
// sim::simFail, which aborts instead of throwing).  Built only in the bench
// preset, where this file and the engine sources are compiled with
// -fno-exceptions; a stray `throw` in any of these layers breaks the build.
#include <cstdio>

#include "bcsmpi/matching.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"

#if defined(__cpp_exceptions)
#error "noexcept_smoke must be compiled with -fno-exceptions"
#endif

int main() {
  bcs::sim::Engine eng;
  int fired = 0;
  eng.at(100, [&] { ++fired; });
  eng.after(bcs::sim::msec(20), [&] { ++fired; });  // far heap
  const bcs::sim::EventId doomed = eng.at(500, [&] { ++fired; });
  if (!eng.cancel(doomed)) return 1;
  eng.run();
  if (fired != 2 || eng.pendingEvents() != 0) return 1;

  bcs::sim::PayloadPool pool;
  auto buf = pool.acquire(4096);
  buf.reset();
  if (pool.spareBuffers() != 1) return 1;

  bcs::bcsmpi::SendMatchIndex sends;
  bcs::bcsmpi::RecvMatchIndex recvs;
  bcs::bcsmpi::SendDescriptor s;
  s.job = 0;
  s.src_rank = 1;
  s.dst_rank = 0;
  s.tag = 7;
  s.seq = 1;
  sends.insert(s);
  bcs::bcsmpi::RecvDescriptor r;
  r.job = 0;
  r.want_src = bcs::mpi::kAnySource;
  r.dst_rank = 0;
  r.want_tag = 7;
  r.seq = 2;
  r.bytes = 64;
  recvs.insert(r);
  const bcs::bcsmpi::SendDescriptor* hit = sends.lowestSeqMatch(r);
  if (hit == nullptr || hit->seq != 1) return 1;

  std::puts("noexcept smoke: ok");
  return 0;
}
