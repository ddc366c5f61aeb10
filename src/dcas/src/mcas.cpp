#include "dcd/dcas/mcas.hpp"

#include <utility>

#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/tagged_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::dcas {

namespace {

// Mark layout inside a descriptor-carrying word: bit0 set; bit1 selects the
// descriptor kind. Descriptors are at least 8-aligned (pool nodes start on
// cache lines) so the payload bits recover the address exactly.
constexpr std::uint64_t kRdcssMark = 0b01;
constexpr std::uint64_t kMcasMark = 0b11;
constexpr std::uint64_t kMarkBits = 0b11;

constexpr bool is_marked(std::uint64_t v) { return is_descriptor(v); }
constexpr bool is_rdcss(std::uint64_t v) { return (v & kMarkBits) == kRdcssMark; }
constexpr bool is_mcas(std::uint64_t v) { return (v & kMarkBits) == kMcasMark; }

constexpr std::uint64_t kUndecided = 0;
constexpr std::uint64_t kSucceeded = 1;
constexpr std::uint64_t kFailed = 2;

// No alignas: a pool node is a whole number of cache lines anyway, and an
// unpadded descriptor leaves room for the pool's free-list link inside the
// node's last line (128 B MCAS and 64 B RDCSS nodes).
struct McasDesc {
  Word* addr[McasDcas::kMaxCasnWidth];
  std::uint64_t oldv[McasDcas::kMaxCasnWidth];
  std::uint64_t newv[McasDcas::kMaxCasnWidth];
  std::size_t width;
  std::atomic<std::uint64_t> status{kUndecided};
  bool pooled;  // storage origin, for the dispose path
};

// RDCSS sub-descriptor: "install newv into *data if *data == oldv and the
// operation's status is still UNDECIDED".
struct RdcssDesc {
  std::atomic<std::uint64_t>* cond;  // &owner->status
  Word* data;
  std::uint64_t oldv;
  std::uint64_t newv;  // mcas-marked owner descriptor
  bool pooled;
};

static_assert(alignof(McasDesc) > kMarkBits && alignof(RdcssDesc) > kMarkBits,
              "descriptor addresses must keep the mark bits clear");

// Descriptor storage. A heap `new` would route the "lock-free" DCAS
// through malloc's locks, so descriptors come from lock-free type-stable
// pools (heap fallback only under exhaustion: a stalled EBR epoch can
// hold more than a pool's capacity in limbo). The pools are immortal
// (leaked singletons): the global EBR domain's force-drain at process
// exit returns the last descriptors to them, so they must outlive every
// static destructor.
reclaim::TaggedNodePool& mcas_desc_pool() {
  static auto* pool = new reclaim::TaggedNodePool(sizeof(McasDesc), 1 << 14);
  return *pool;
}
reclaim::TaggedNodePool& rdcss_desc_pool() {
  static auto* pool =
      new reclaim::TaggedNodePool(sizeof(RdcssDesc), 1 << 14);
  return *pool;
}

// Per-slot descriptor cache (DESIGN.md §4.1). The shared pools above are
// the backing store; the hot path recycles through the calling thread's
// slot so the two ends of a deque never meet on a free-list head. Only
// the slot's owner touches its cache: allocation runs on the owner, and
// descriptors are retired into the owner's EBR limbo with the cache as
// the deleter's context, so the post-grace return also runs on the owner
// (or on the EBR destructor's single thread at exit). Keyed by slot, not
// thread_local: a later owner of the slot inherits the cache, and the
// exit-time force-drain never touches a destroyed thread_local.
struct FreeDesc {
  FreeDesc* next;
};

struct DescFreeList {
  FreeDesc* head = nullptr;
  std::size_t count = 0;
  std::uint64_t pool_draws = 0;  // diagnostics: misses served by the pool
};

struct DescCache {
  DescFreeList mcas;
  DescFreeList rdcss;
  std::uint64_t heap_fallbacks = 0;  // diagnostics: pool was empty too
};

// Constant-initialised and trivially destructible, so the caches are valid
// from before the first static constructor until after the last static
// destructor (the exit-time force-drain returns descriptors into them).
util::CacheAligned<DescCache> g_desc_cache[util::ThreadRegistry::kMaxThreads];

// Everything one entry point looks up once and hands down: the calling
// thread's registry slot, its telemetry block and its descriptor cache.
struct OpCtx {
  std::size_t slot;
  Counters& c;
  DescCache& cache;
};

OpCtx op_ctx() {
  const std::size_t s = util::ThreadRegistry::self();
  return OpCtx{s, Telemetry::at(s), *g_desc_cache[s]};
}

// DCD_GUARD_EXEMPT(owner-private free list of unpublished descriptors; no shared pointer is dereferenced)
void* cache_take(DescFreeList& list, reclaim::TaggedNodePool& pool) {
  if (FreeDesc* f = list.head) {
    list.head = f->next;
    --list.count;
    return f;
  }
  void* raw = pool.allocate();
  if (raw != nullptr) ++list.pool_draws;
  return raw;
}

// DCD_GUARD_EXEMPT(post-grace return of an exclusively owned descriptor to its slot's private free list)
void cache_give(DescFreeList& list, reclaim::TaggedNodePool& pool, void* p) {
  if (list.count >= McasDcas::kDescCacheCap) {
    pool.deallocate(p);
    return;
  }
  auto* f = static_cast<FreeDesc*>(p);
  f->next = list.head;
  list.head = f;
  ++list.count;
}

// DCD_REQUIRES_GUARD(descriptor is handed out raw; the pinned entry point's guard covers it until retire)
McasDesc* alloc_mcas_desc(OpCtx& op) {
  ++op.c.descriptors;
  if (void* raw = cache_take(op.cache.mcas, mcas_desc_pool())) {
    auto* d = new (raw) McasDesc;
    d->pooled = true;
    return d;
  }
  ++op.cache.heap_fallbacks;
  auto* d = new McasDesc;
  d->pooled = false;
  return d;
}

// DCD_REQUIRES_GUARD(descriptor is handed out raw; the pinned entry point's guard covers it until retire)
RdcssDesc* alloc_rdcss_desc(OpCtx& op, std::atomic<std::uint64_t>* cond,
                            Word* data, std::uint64_t oldv,
                            std::uint64_t newv) {
  ++op.c.descriptors;
  if (void* raw = cache_take(op.cache.rdcss, rdcss_desc_pool())) {
    return new (raw) RdcssDesc{cond, data, oldv, newv, true};
  }
  ++op.cache.heap_fallbacks;
  return new RdcssDesc{cond, data, oldv, newv, false};
}

// `ctx` is the retiring slot's DescCache (see retire_desc).
// DCD_GUARD_EXEMPT(post-grace EBR callback; the descriptor is exclusively owned here)
void dispose_mcas_desc(void* p, void* ctx) {
  auto* d = static_cast<McasDesc*>(p);
  if (d->pooled) {
    d->~McasDesc();
    cache_give(static_cast<DescCache*>(ctx)->mcas, mcas_desc_pool(), d);
  } else {
    delete d;
  }
}

// DCD_GUARD_EXEMPT(post-grace EBR callback; the descriptor is exclusively owned here)
void dispose_rdcss_desc(void* p, void* ctx) {
  auto* d = static_cast<RdcssDesc*>(p);
  if (d->pooled) {
    d->~RdcssDesc();
    cache_give(static_cast<DescCache*>(ctx)->rdcss, rdcss_desc_pool(), d);
  } else {
    delete d;
  }
}

std::uint64_t mark(RdcssDesc* d) {
  return reinterpret_cast<std::uint64_t>(d) | kRdcssMark;
}
std::uint64_t mark(McasDesc* d) {
  return reinterpret_cast<std::uint64_t>(d) | kMcasMark;
}
RdcssDesc* rdcss_of(std::uint64_t v) {
  return reinterpret_cast<RdcssDesc*>(v & ~kMarkBits);
}
McasDesc* mcas_of(std::uint64_t v) {
  return reinterpret_cast<McasDesc*>(v & ~kMarkBits);
}

// Retires a finished descriptor into the calling slot's EBR limbo, with
// that slot's cache as the deleter context (see DescCache).
template <typename Desc>
void retire_desc(OpCtx& op, Desc* d, reclaim::EbrDomain::Deleter dispose) {
  reclaim::global_ebr_domain().retire(op.slot, d, dispose, &op.cache);
}

// Finishes an installed RDCSS: replace the sub-descriptor mark with either
// the MCAS mark (condition still UNDECIDED) or the original value.
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the load/dcas/casn entry guard)
void rdcss_complete(OpCtx& op, RdcssDesc* d) {
  const std::uint64_t cond = d->cond->load(std::memory_order_acquire);
  std::uint64_t expected = mark(d);
  const std::uint64_t replacement = (cond == kUndecided) ? d->newv : d->oldv;
  // DCD_SYNC(policy-internal)
  d->data->raw.compare_exchange_strong(expected, replacement,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed);
  ++op.c.cas_ops;
}

// The RDCSS operation itself. Returns the value logically read from *data:
// d->oldv on success, otherwise the conflicting content (a clean value or
// an mcas-marked word; rdcss marks are resolved internally).
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the load/dcas/casn entry guard)
std::uint64_t rdcss(OpCtx& op, RdcssDesc* d) {
  // DCD_PROGRESS(CAS failure means another thread's install or help committed; conflicting rdcss marks are resolved before retrying)
  for (;;) {
    std::uint64_t expected = d->oldv;
    ++op.c.cas_ops;
    // DCD_SYNC(policy-internal)
    if (d->data->raw.compare_exchange_strong(expected, mark(d),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      rdcss_complete(op, d);
      return d->oldv;
    }
    if (is_rdcss(expected)) {
      rdcss_complete(op, rdcss_of(expected));
      continue;
    }
    return expected;
  }
}

// Runs an MCAS to completion (owner and helpers execute the same code).
// Caller must be pinned in the global EBR domain.
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the dcas/casn entry guard)
bool mcas_help(OpCtx& op, McasDesc* d) {
  // DCD_HB(mcas.status.decide, role=acquire)
  if (d->status.load(std::memory_order_acquire) == kUndecided) {
    // Phase 1: install the descriptor in both words (ascending address
    // order — established at creation — so concurrent MCASes cannot
    // livelock each other).
    std::uint64_t desired = kSucceeded;
    for (std::size_t i = 0; i < d->width && desired == kSucceeded; ++i) {
      for (;;) {
        auto* rd = alloc_rdcss_desc(op, &d->status, d->addr[i], d->oldv[i],
                                    mark(d));
        const std::uint64_t r = rdcss(op, rd);
        retire_desc(op, rd, dispose_rdcss_desc);
        if (is_mcas(r)) {
          if (r == mark(d)) break;  // a helper already installed for us
          ++op.c.helps;
          mcas_help(op, mcas_of(r));  // clear the conflicting operation first
          continue;
        }
        if (r == d->oldv[i]) break;  // installed by the rdcss above
        desired = kFailed;           // genuine value mismatch
        break;
      }
    }
    std::uint64_t expected = kUndecided;
    // DCD_SYNC(policy-internal)
    // DCD_HB(mcas.status.decide, role=release)
    d->status.compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
    ++op.c.cas_ops;
  }

  // Phase 2: swap the marks for the outcome's values. Idempotent; any
  // subset of owner/helpers may execute it.
  const bool ok = d->status.load(std::memory_order_acquire) == kSucceeded;
  for (std::size_t i = 0; i < d->width; ++i) {
    std::uint64_t expected = mark(d);
    // DCD_SYNC(policy-internal)
    d->addr[i]->raw.compare_exchange_strong(
        expected, ok ? d->newv[i] : d->oldv[i], std::memory_order_acq_rel,
        std::memory_order_relaxed);
    ++op.c.cas_ops;
  }
  return ok;
}

// McasDcas::load with the slot already looked up (cas() reuses it).
std::uint64_t load_with(OpCtx& op, const Word& w) {
  ++op.c.loads;
  std::uint64_t v = w.raw.load(std::memory_order_acquire);
  if (!is_marked(v)) return v;

  // Slow path: pin first, then re-read, so the descriptor we dereference
  // cannot be reclaimed under us.
  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain(), op.slot);
  auto& word = const_cast<Word&>(w);
  for (;;) {
    v = word.raw.load(std::memory_order_acquire);
    if (!is_marked(v)) return v;
    ++op.c.helps;
    if (is_rdcss(v)) {
      rdcss_complete(op, rdcss_of(v));
    } else {
      mcas_help(op, mcas_of(v));
    }
  }
}

// Shared tail of dcas/casn: runs a filled-in descriptor and retires it.
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the dcas/casn entry guard)
bool run_mcas(OpCtx& op, McasDesc* d) {
  const bool ok = mcas_help(op, d);
  retire_desc(op, d, dispose_mcas_desc);
  if (!ok) ++op.c.dcas_failures;
  return ok;
}

}  // namespace

std::uint64_t McasDcas::load(const Word& w) noexcept {
  // The clean fast path needs only the telemetry block; the slot lookup
  // is the same one op_ctx() would make.
  const std::uint64_t v = w.raw.load(std::memory_order_acquire);
  if (!is_marked(v)) {
    ++Telemetry::tl().loads;
    return v;
  }
  OpCtx op = op_ctx();
  return load_with(op, w);
}

bool McasDcas::cas(Word& w, std::uint64_t oldv,
                   std::uint64_t newv) noexcept {
  DCD_DEBUG_ASSERT(!is_marked(oldv) && !is_marked(newv));
  OpCtx op = op_ctx();
  // DCD_PROGRESS(every retry first helps the conflicting descriptor to completion via load(); a clean mismatch returns false)
  for (;;) {
    const std::uint64_t v = load_with(op, w);  // helps any descriptor away
    if (v != oldv) return false;
    std::uint64_t expected = oldv;
    ++op.c.cas_ops;
    // DCD_SYNC(policy-internal)
    if (w.raw.compare_exchange_strong(expected, newv,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return true;
    }
    if (!is_marked(expected)) return false;  // clean conflicting value
    // A descriptor slipped in; help it out and retry the comparison.
  }
}

bool McasDcas::dcas(Word& a, Word& b, std::uint64_t oa, std::uint64_t ob,
                    std::uint64_t na, std::uint64_t nb) noexcept {
  DCD_ASSERT(&a != &b);
  DCD_DEBUG_ASSERT(!is_marked(oa) && !is_marked(ob) && !is_marked(na) &&
                   !is_marked(nb));
  OpCtx op = op_ctx();
  ++op.c.dcas_calls;

  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain(), op.slot);
  auto* d = alloc_mcas_desc(op);
  d->width = 2;
  // Ascending address order (see mcas_help).
  if (&a < &b) {
    d->addr[0] = &a; d->addr[1] = &b;
    d->oldv[0] = oa; d->oldv[1] = ob;
    d->newv[0] = na; d->newv[1] = nb;
  } else {
    d->addr[0] = &b; d->addr[1] = &a;
    d->oldv[0] = ob; d->oldv[1] = oa;
    d->newv[0] = nb; d->newv[1] = na;
  }
  return run_mcas(op, d);
}

bool McasDcas::casn(Word* const* addrs, const std::uint64_t* olds,
                    const std::uint64_t* news, std::size_t n) noexcept {
  DCD_ASSERT(n >= 1 && n <= kMaxCasnWidth);
  OpCtx op = op_ctx();
  ++op.c.dcas_calls;

  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain(), op.slot);
  auto* d = alloc_mcas_desc(op);
  d->width = n;
  for (std::size_t i = 0; i < n; ++i) {
    d->addr[i] = addrs[i];
    d->oldv[i] = olds[i];
    d->newv[i] = news[i];
    DCD_DEBUG_ASSERT(!is_marked(olds[i]) && !is_marked(news[i]));
  }
  // Ascending address order (livelock freedom); distinct addresses
  // required, as with dcas.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = i; j > 0 && d->addr[j] < d->addr[j - 1]; --j) {
      std::swap(d->addr[j], d->addr[j - 1]);
      std::swap(d->oldv[j], d->oldv[j - 1]);
      std::swap(d->newv[j], d->newv[j - 1]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    DCD_ASSERT(d->addr[i] != d->addr[i - 1]);
  }
  return run_mcas(op, d);
}

McasDcas::DescriptorCacheStats McasDcas::descriptor_cache_stats() noexcept {
  DescriptorCacheStats sum;
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    const DescCache& cache = *g_desc_cache[i];
    sum.heap_fallbacks += cache.heap_fallbacks;
    sum.mcas_pool_draws += cache.mcas.pool_draws;
    sum.rdcss_pool_draws += cache.rdcss.pool_draws;
  }
  return sum;
}

void McasDcas::snapshot(Word& a, Word& b, std::uint64_t& va,
                        std::uint64_t& vb) noexcept {
  for (;;) {
    va = load(a);
    vb = load(b);
    // An identity DCAS that succeeds proves (va, vb) was an atomic pair.
    if (dcas(a, b, va, vb, va, vb)) return;
  }
}

bool McasDcas::dcas_view(Word& a, Word& b, std::uint64_t& oa,
                         std::uint64_t& ob, std::uint64_t na,
                         std::uint64_t nb) noexcept {
  for (;;) {
    if (dcas(a, b, oa, ob, na, nb)) return true;
    std::uint64_t va, vb;
    snapshot(a, b, va, vb);
    if (va == oa && vb == ob) {
      // The failure was transient (a competing operation was mid-flight at
      // decision time but the words have returned to the expected pair);
      // by DCAS semantics this counts as "should have succeeded", so retry.
      continue;
    }
    oa = va;
    ob = vb;
    return false;
  }
}

}  // namespace dcd::dcas
