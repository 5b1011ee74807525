// Pairwise link list — the fundamental object of the algorithm.
//
// "The fundamental object in the code is a single list of links and the
// major time-consuming loop is over this list rather than over the
// particles themselves."  Links connect particles closer than the cutoff
// rc; the list stays valid until some particle has drifted too far.
//
// In the decomposed drivers each block keeps core links first and
// core-halo links after them (halo-halo pairs are dropped; both owners see
// the pair as core-halo).  For a core-halo link the core particle is
// always stored first so the force pass can update only that end.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_grid.hpp"
#include "core/counters.hpp"
#include "core/pair_disp.hpp"
#include "util/vec.hpp"

namespace hdem {

struct Link {
  std::int32_t i;  // first particle (always core in decomposed blocks)
  std::int32_t j;  // second particle (may be a halo copy)
};

// Conflict-free partition of a link list for the colored force reduction.
//
// The grid's axis-0 slabs are grouped into `nchunks` contiguous chunks
// (each at least one slab wide); every link is assigned to the chunk of
// its lower slab, so the particles a chunk's links touch lie inside the
// chunk or in the first slab of the next chunk (half-stencil geometry —
// see CellGrid::slab_count).  Chunks of equal parity therefore touch
// pairwise-disjoint particle sets: any number of threads may process
// same-parity chunks concurrently with plain unprotected updates, with one
// barrier between the even ("color 0") and odd ("color 1") phases.
//
// With axis 0 periodic the chunk count is forced even so the parity
// alternation stays consistent around the ring (the last chunk's links
// wrap into the first chunk's leading slab).
//
// The link sections are stored in the pair-swapped chunk order 0, 2, 1,
// 4, 3, ... (cell order within each chunk): for every chunk pair sharing
// particles the even chunk's links come first, so a serial in-order
// traversal accumulates every particle's contributions in exactly the
// order the colored pass does — that is what makes the colored
// trajectories bit-identical to the serial driver's — while the layout
// stays near-ascending and cache-friendly for the block strategies.
struct ColorPlan {
  int nchunks = 0;  // 0 = no plan built
  int ncolors = 0;  // 1 (degenerate single chunk) or 2
  // Per chunk: absolute index ranges into LinkList::links.
  std::vector<std::size_t> core_lo, core_hi;
  std::vector<std::size_t> halo_lo, halo_hi;

  bool active() const { return nchunks > 0; }
  int color_of(int chunk) const { return ncolors < 2 ? 0 : chunk & 1; }
  void clear() {
    nchunks = 0;
    ncolors = 0;
    core_lo.clear();
    core_hi.clear();
    halo_lo.clear();
    halo_hi.clear();
  }
};

// The chunk geometry shared by build_color_plan and the fused link build:
// how slabs group into chunks, and the pair-swapped storage order.
struct ChunkMap {
  int nslabs = 0;
  int nchunks = 0;
  bool wrapped = false;

  template <int D>
  static ChunkMap of(const CellGrid<D>& grid) {
    ChunkMap m;
    m.nslabs = grid.slab_count();
    m.wrapped = grid.wrapped(0);
    // With axis 0 periodic the chunk count is forced even so the parity
    // alternation stays consistent around the ring.
    m.nchunks = m.wrapped ? m.nslabs - (m.nslabs & 1) : m.nslabs;
    if (m.nchunks < 1) m.nchunks = 1;
    return m;
  }

  int ncolors() const { return nchunks >= 2 ? 2 : 1; }

  // Chunk c covers slabs [c * nslabs / nchunks, (c+1) * nslabs / nchunks),
  // each at least one slab wide since nchunks <= nslabs.
  int chunk_of_slab(int s) const {
    return static_cast<int>(
        (static_cast<std::int64_t>(s + 1) * nchunks - 1) / nslabs);
  }
  int slab_lo(int c) const { return c * nslabs / nchunks; }
  int slab_hi(int c) const { return (c + 1) * nslabs / nchunks; }

  // Storage rank: the pair-swapped sequence 0, 2, 1, 4, 3, 6, 5, ...
  // Every pair of chunks that shares particles — {c-1, c}, and {nchunks-1,
  // 0} across the periodic seam — stores the even chunk's links before the
  // odd chunk's, so a serial in-order traversal accumulates each
  // particle's contributions in exactly the colored pass's
  // even-phase-then-odd-phase order (bit-identity).  Unlike a fully
  // color-major layout the sequence stays near-ascending, so static link
  // blocks keep their spatial locality and the selected-atomic conflict
  // surface stays a surface.  The permutation is an involution, so it also
  // maps a storage rank back to its chunk.
  int rank_of_chunk(int c) const {
    if ((c & 1) == 0) return c == 0 ? 0 : c - 1;
    return c + 1 < nchunks ? c + 1 : c;
  }
};

// Allocator whose value-initialisation is default-initialisation: growing
// a link buffer leaves the new slots unwritten (Link is trivial), so the
// link kernel can size a buffer for a cell's worst case without paying to
// zero slots it is about to overwrite.
template <class T>
struct UninitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

using LinkVector = std::vector<Link, UninitAllocator<Link>>;

struct LinkList {
  LinkVector links;
  std::size_t n_core = 0;  // links[0, n_core) have both ends core
  ColorPlan plan;          // rebuilt with the list (see build_color_plan)

  // Rebuild scratch, reused across rebuilds to avoid per-rebuild
  // allocations: halo links collected before splicing, the colored
  // reorder's temporaries, and its per-chunk counting-sort offsets.
  LinkVector halo_scratch;
  LinkVector sort_scratch;
  std::vector<std::int32_t> chunk_scratch;
  std::vector<std::size_t> start_scratch;

  std::span<const Link> core() const { return {links.data(), n_core}; }
  std::span<const Link> halo() const {
    return {links.data() + n_core, links.size() - n_core};
  }
  std::size_t size() const { return links.size(); }
  void clear() {
    links.clear();
    n_core = 0;
    plan.clear();
  }
};

// Cell-ordered snapshot of a binned particle set — the link kernel's
// input, a struct of two arrays: entry k of the grid's cell order is
// particle id[k] at position x[k], so every cell's particles form one
// contiguous run [starts[c], starts[c+1]) of both.  Within a run the ids
// ascend (the counting sort is stable), so core particles (id < ncore)
// precede halo copies.
template <int D>
struct CellSnapshot {
  std::span<const Vec<D>> x;
  std::span<const std::int32_t> id;
};

// Gather x[k] = pos[order[k]] for the cell-order entries [lo, hi).
template <int D>
void gather_cell_positions(const CellGrid<D>& grid,
                           std::span<const Vec<D>> pos, std::vector<Vec<D>>& buf,
                           std::size_t lo, std::size_t hi) {
  const std::int32_t* order = grid.order().data();
  for (std::size_t k = lo; k < hi; ++k) {
    buf[k] = pos[static_cast<std::size_t>(order[k])];
  }
}

// Snapshot the particles binned in `grid`.  After the store was permuted
// into cell order the positions already are the snapshot; otherwise they
// are gathered into `buf` (the drivers lend the store's reorder scratch,
// idle between reorders, so the snapshot adds no memory).
template <int D>
CellSnapshot<D> snapshot_cells(const CellGrid<D>& grid,
                               std::span<const Vec<D>> pos,
                               std::vector<Vec<D>>& buf) {
  const std::size_t n = grid.order().size();
  if (grid.identity_order()) return {pos.first(n), grid.order()};
  buf.resize(n);
  gather_cell_positions(grid, pos, buf, 0, n);
  return {std::span<const Vec<D>>(buf.data(), n), grid.order()};
}

namespace detail {

// Test xa against the snapshot entries [b0, b1) and append a link for
// every one within the list radius: {ia, id[b]}, or {id[b], ia} when Flip
// (core end first).  Every candidate is written and only accepted ones
// advance the cursor, so the loop has no data-dependent branch; `out`
// needs room for b1 - b0 links.  The distance is norm2(disp(xa, xb))
// bit for bit (Image = false drops the minimum image where it provably
// cannot fire).
template <int D, bool Image, bool Flip>
inline Link* scan_links(const Vec<D>& xa, std::int32_t ia, const Vec<D>* x,
                        const std::int32_t* id, std::size_t b0, std::size_t b1,
                        double rc2, const PairDisp<D>& disp, Link* out) {
  for (std::size_t b = b0; b < b1; ++b) {
    Vec<D> d = xa - x[b];
    if constexpr (Image) {
      for (int k = 0; k < D; ++k) d[k] = disp.image(d[k], k);
    }
    *out = Flip ? Link{id[b], ia} : Link{ia, id[b]};
    out += norm2(d) < rc2 ? 1 : 0;
  }
  return out;
}

// A cell's snapshot run split at the core/halo boundary: [b, h) core,
// [h, e) halo.
struct CellRun {
  std::size_t b, h, e;
};

// Append cursor into a link buffer: slots [p, end) are writable (grown
// uninitialised), so a room check is one pointer compare.
struct LinkCursor {
  LinkVector* buf;
  Link* p;
  Link* end;

  explicit LinkCursor(LinkVector& b)
      : buf(&b), p(b.data() + b.size()), end(p) {}
  void room(std::size_t extra) {
    if (static_cast<std::size_t>(end - p) >= extra) return;
    const auto n = static_cast<std::size_t>(p - buf->data());
    buf->resize(n);  // keeps only the written prefix if this reallocates
    // A little slack spares the next few run pairs a resize; growth stays
    // the vector's own (geometric) policy, so capacity tracks the list.
    buf->resize(n + 2 * extra + 64);
    p = buf->data() + n;
    end = buf->data() + buf->size();
  }
  void finish() { buf->resize(static_cast<std::size_t>(p - buf->data())); }
};

// Emit the links between cell run `self` and neighbour run `r` (or, with
// intra, the pairs within `self`), in (a, b) order within each stream:
// core a against the core and halo parts, then halo a against the core
// part.  Halo-halo pairs are dropped; within a cell a halo entry only
// precedes halo entries, so intra pairs never start at one.
template <int D, bool Image, bool Intra>
inline void link_runs(const Vec<D>* x, const std::int32_t* id, double rc2,
                      const PairDisp<D>& disp, const CellRun& self,
                      const CellRun& r, LinkCursor& core, LinkCursor& halo) {
  const std::size_t nc = self.h - self.b;
  core.room(Intra ? nc * (nc - 1) / 2 : nc * (r.h - r.b));  // 0 if nc == 0
  halo.room(Intra ? nc * (r.e - r.h)
                  : nc * (r.e - r.h) + (self.e - self.h) * (r.h - r.b));
  Link* pc = core.p;
  Link* ph = halo.p;
  for (std::size_t a = self.b; a < self.h; ++a) {
    pc = scan_links<D, Image, false>(x[a], id[a], x, id, Intra ? a + 1 : r.b,
                                     r.h, rc2, disp, pc);
    ph = scan_links<D, Image, false>(x[a], id[a], x, id, r.h, r.e, rc2, disp,
                                     ph);
  }
  if constexpr (!Intra) {
    for (std::size_t a = self.h; a < self.e; ++a) {
      ph = scan_links<D, Image, true>(x[a], id[a], x, id, r.b, r.h, rc2, disp,
                                      ph);
    }
  }
  core.p = pc;
  halo.p = ph;
}

template <int D, bool Image>
inline void link_cell(const CellGrid<D>& grid, const CellSnapshot<D>& cells,
                      std::size_t ncore, double rc2, const PairDisp<D>& disp,
                      const std::int32_t* delta, std::int32_t c,
                      bool interior, LinkCursor& core, LinkCursor& halo) {
  const std::int32_t* starts = grid.starts().data();
  const Vec<D>* x = cells.x.data();
  const std::int32_t* id = cells.id.data();
  auto run_of = [&](std::int32_t cell) {
    const auto b = static_cast<std::size_t>(starts[cell]);
    const auto e = static_cast<std::size_t>(starts[cell + 1]);
    std::size_t h = e;
    while (h > b && static_cast<std::size_t>(id[h - 1]) >= ncore) --h;
    return CellRun{b, h, e};
  };
  const CellRun self = run_of(c);
  if (self.e == self.b) return;
  link_runs<D, Image, true>(x, id, rc2, disp, self, self, core, halo);
  const auto& stencil = CellGrid<D>::half_stencil();
  for (std::size_t s = 0; s < CellGrid<D>::kHalfStencilSize; ++s) {
    const std::int32_t nb =
        interior ? c + delta[s] : grid.neighbor(c, stencil[s]);
    if (nb < 0) continue;
    const CellRun r = run_of(nb);
    if (r.e == r.b) continue;
    link_runs<D, Image, false>(x, id, rc2, disp, self, r, core, halo);
  }
}

template <int D>
void link_cells(const CellGrid<D>& grid, const CellSnapshot<D>& cells,
                std::size_t ncore, double rc2, const PairDisp<D>& disp,
                std::int32_t cell_lo, std::int32_t cell_hi,
                LinkVector& out_core, LinkVector& out_halo) {
  const auto& stencil = CellGrid<D>::half_stencil();
  constexpr std::size_t kStencil = CellGrid<D>::kHalfStencilSize;
  const std::array<int, D>& dims = grid.dims();
  // Flat stencil deltas: for a cell whose every stencil neighbour lies
  // inside the grid, neighbour = cell + delta (row-major strides).
  std::array<std::int32_t, kStencil> delta{};
  for (std::size_t s = 0; s < kStencil; ++s) {
    std::int32_t stride = 1;
    for (int d = D - 1; d >= 0; --d) {
      delta[s] += stencil[s][static_cast<std::size_t>(d)] * stride;
      stride *= dims[static_cast<std::size_t>(d)];
    }
  }
  // Minimum image is the identity for two particles in the same or
  // adjacent cells when neither cell is an edge cell (only edge cells
  // collect clamped or wrapped-around particles), provided two cells span
  // at most half the box on every axis: |d| < 2 cells <= box / 2 cannot
  // trip the image test.  Such pairs take the plain subtraction — the
  // same bits, without the image compares.
  bool image_free_inside = true;
  for (int d = 0; d < D; ++d) {
    image_free_inside = image_free_inside &&
                        4.0 * grid.cell_size()[d] * (1.0 + 1e-9) <= disp.box[d];
  }
  LinkCursor core(out_core), halo(out_halo);
  std::array<int, D> cc = grid.coords_of(cell_lo);
  for (std::int32_t c = cell_lo; c < cell_hi; ++c) {
    // The half stencil steps 0 or +1 along axis 0 and -1..+1 along the
    // others.  Interior cells find their neighbours by flat delta; edge
    // cells (and wrapped neighbours) take the checked path.  A deep cell
    // also has no edge cell among its neighbours.
    bool interior = cc[0] + 1 < dims[0];
    bool deep = cc[0] >= 1 && cc[0] + 2 < dims[0];
    for (int d = 1; d < D; ++d) {
      interior = interior && cc[d] >= 1 && cc[d] + 1 < dims[d];
      deep = deep && cc[d] >= 2 && cc[d] + 2 < dims[d];
    }
    for (int d = D - 1; d >= 0; --d) {  // odometer step to the next cell
      if (++cc[d] < dims[d]) break;
      cc[d] = 0;
    }
    if (disp.periodic && !(deep && image_free_inside)) {
      link_cell<D, true>(grid, cells, ncore, rc2, disp, delta.data(), c,
                         interior, core, halo);
    } else {
      link_cell<D, false>(grid, cells, ncore, rc2, disp, delta.data(), c,
                          interior, core, halo);
    }
  }
  core.finish();
  halo.finish();
}

}  // namespace detail

// Generate links originating from cells [cell_lo, cell_hi).  Particles
// with index < ncore are core; the rest are halo copies.  `disp` is the
// force kernel's pair displacement: minimum image in serial periodic
// runs, plain subtraction in block runs where halo copies carry shifted
// coordinates.  Core-core links are appended to out_core, core-halo links
// (core end first) to out_halo; halo-halo pairs are dropped.  This
// per-range form is what the threaded build parallelises over cells,
// exactly as the paper's OpenMP code does.
//
// Each stream holds its links in (cell, stencil offset, first end,
// second end) generation order: the order of a plain nested loop over
// cell_particles() and the stencil, which tests/test_link_list.cpp keeps
// as the oracle this kernel must match byte for byte.
template <int D>
void build_links_range(const CellGrid<D>& grid, const CellSnapshot<D>& cells,
                       std::size_t ncore, double rc, const PairDisp<D>& disp,
                       std::int32_t cell_lo, std::int32_t cell_hi,
                       LinkVector& out_core, LinkVector& out_halo) {
  detail::link_cells(grid, cells, ncore, rc * rc, disp, cell_lo, cell_hi,
                     out_core, out_halo);
}

// Link-gap statistics of a set of links (see record_link_stats).  Integer
// tallies, so per-thread tallies merged in any order give the serial
// totals exactly.  Cache-line aligned: the fused build keeps one per
// thread.
struct alignas(64) LinkGapTally {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t hist[Counters::kGapBuckets] = {};

  void add(std::span<const Link> links) {
    for (const Link& l : links) {
      const auto gap =
          static_cast<std::uint64_t>(l.i > l.j ? l.i - l.j : l.j - l.i);
      sum += gap;
      ++hist[Counters::gap_bucket(gap)];
    }
    count += links.size();
  }

  void merge_into(Counters& c) const {
    c.link_gap_sum += sum;
    c.link_gap_count += count;
    for (int b = 0; b < Counters::kGapBuckets; ++b) c.link_gap_hist[b] += hist[b];
  }
};

// Record the current list's size and locality statistics.  Accumulates
// (callers owning several blocks zero links_core/links_halo once per
// rebuild, then record every block's list).
//
// Only core links feed the gap histogram: a core-halo link's second end
// lives in the compact halo region that the halo swap has just streamed
// through the cache, so its (large) storage-index gap says nothing about
// its reuse distance.
inline void record_link_stats(const LinkList& list, Counters& counters) {
  counters.links_core += list.n_core;
  counters.links_halo += list.size() - list.n_core;
  LinkGapTally tally;
  tally.add(list.core());
  tally.merge_into(counters);
}

// Build the list's ColorPlan: assign every link to its chunk, reorder the
// core and halo sections into the pair-swapped chunk order (a stable
// counting sort, so cell order is preserved within each chunk), and record
// the per-chunk ranges.
// `pos` must be the positions the grid was last binned with — both ends of
// a link are then at most one slab apart (cells are at least rc wide),
// except the pair that spans the periodic seam, which belongs to the last
// chunk (its links wrap into slab 0, the first chunk's leading slab).
template <int D>
void build_color_plan(LinkList& list, const CellGrid<D>& grid,
                      std::span<const Vec<D>> pos) {
  ColorPlan& plan = list.plan;
  plan.clear();
  const ChunkMap cm = ChunkMap::of(grid);
  plan.nchunks = cm.nchunks;
  plan.ncolors = cm.ncolors();
  const auto nsz = static_cast<std::size_t>(cm.nchunks);
  plan.core_lo.assign(nsz, 0);
  plan.core_hi.assign(nsz, 0);
  plan.halo_lo.assign(nsz, 0);
  plan.halo_hi.assign(nsz, 0);

  auto& chunk = list.chunk_scratch;
  auto& tmp = list.sort_scratch;
  auto& start = list.start_scratch;
  chunk.resize(list.links.size());

  auto reorder_section = [&](std::size_t lo, std::size_t hi,
                             std::vector<std::size_t>& out_lo,
                             std::vector<std::size_t>& out_hi) {
    start.assign(nsz + 1, 0);
    for (std::size_t l = lo; l < hi; ++l) {
      const Link& ln = list.links[l];
      int sp = grid.slab_of_position(pos[static_cast<std::size_t>(ln.i)]);
      int sq = grid.slab_of_position(pos[static_cast<std::size_t>(ln.j)]);
      if (sp > sq) std::swap(sp, sq);
      // sq - sp > 1 can only be the pair straddling the periodic seam
      // ({0, nslabs-1}); it originates from the top slab.
      const int slab = (cm.wrapped && sq - sp > 1) ? sq : sp;
      chunk[l] = static_cast<std::int32_t>(cm.chunk_of_slab(slab));
      ++start[static_cast<std::size_t>(cm.rank_of_chunk(chunk[l])) + 1];
    }
    for (std::size_t r = 0; r < nsz; ++r) start[r + 1] += start[r];
    for (int c = 0; c < cm.nchunks; ++c) {
      const auto r = static_cast<std::size_t>(cm.rank_of_chunk(c));
      out_lo[static_cast<std::size_t>(c)] = lo + start[r];
      out_hi[static_cast<std::size_t>(c)] = lo + start[r + 1];
    }
    tmp.resize(hi - lo);
    for (std::size_t l = lo; l < hi; ++l) {
      const auto r = static_cast<std::size_t>(cm.rank_of_chunk(chunk[l]));
      tmp[start[r]++] = list.links[l];
    }
    std::copy(tmp.begin(), tmp.end(),
              list.links.begin() + static_cast<std::ptrdiff_t>(lo));
  };
  reorder_section(0, list.n_core, plan.core_lo, plan.core_hi);
  reorder_section(list.n_core, list.links.size(), plan.halo_lo, plan.halo_hi);
}

// Generate the whole list in one pass: core links, then core-halo links
// (the color plan is left to build_color_plan).
template <int D>
void generate_links(LinkList& out, const CellGrid<D>& grid,
                    const CellSnapshot<D>& cells, std::size_t ncore, double rc,
                    const PairDisp<D>& disp) {
  out.clear();
  out.halo_scratch.clear();
  build_links_range(grid, cells, ncore, rc, disp, 0, grid.ncells(), out.links,
                    out.halo_scratch);
  out.n_core = out.links.size();
  out.links.insert(out.links.end(), out.halo_scratch.begin(),
                   out.halo_scratch.end());
}

// Serial convenience wrapper: snapshot, build the whole list in one pass,
// then group it into color classes.
template <int D>
void build_links(LinkList& out, const CellGrid<D>& grid,
                 std::span<const Vec<D>> pos, std::size_t ncore, double rc,
                 const PairDisp<D>& disp, Counters* counters = nullptr) {
  std::vector<Vec<D>> buf;
  generate_links(out, grid, snapshot_cells(grid, pos, buf), ncore, rc, disp);
  build_color_plan(out, grid, pos);
  if (counters != nullptr) record_link_stats(out, *counters);
}

// Scratch for build_links_fused, owned by the caller so every buffer keeps
// its capacity across rebuilds (the rebuild hot path stays allocation-free
// at steady state).
struct FusedBuildScratch {
  std::vector<LinkVector> core_buf, halo_buf;  // per thread
  std::vector<LinkGapTally> tally;             // per thread
  // Flattened [thread * nchunks + chunk] tables: links generated per
  // (thread, chunk), and each segment's destination offset in the list.
  std::vector<std::size_t> core_count, halo_count;
  std::vector<std::size_t> core_dst, halo_dst;
};

// Fused thread-parallel link build: generates the list AND its ColorPlan in
// one pass over the cells, producing byte-identical links/n_core/plan to
// build_links for any team size.
//
// The team first fills the cell-ordered snapshot (into `cell_buf`, see
// snapshot_cells; skipped when the store is already in cell order).
// Every link's chunk is known from its originating cell alone: the half
// stencil steps 0 or +1 along axis 0, so the origin always holds the lower
// of the two endpoint slabs — and the periodic-seam pair (endpoint slabs
// {0, nslabs-1}, only possible with nslabs >= 3) is assigned to the top
// slab, which again is the origin.  So instead of tagging links by two
// slab_of_position calls and re-sorting afterwards (build_color_plan),
// each thread calls build_links_range once per chunk-intersection of its
// static cell range and records the growth of its buffers: the buffer is
// already chunk-segmented, in ascending chunk order, cell order within.
//
// One exclusive scan over the (thread, chunk) counts — in storage-rank
// order, thread-minor — then gives every segment's final destination, and
// threads copy their segments straight into the pair-swapped canonical
// positions.  Ordering matches build_color_plan's stable counting sort
// because both enumerate links in (rank, cell, generation) order: within a
// chunk, threads in tid order own ascending cell ranges.
//
// With `counters`, the list's statistics are recorded as record_link_stats
// would: each thread tallies the core links it generated while the
// segments are placed, and the tallies merge afterwards in tid order.
template <int D, class Team>
void build_links_fused(LinkList& out, const CellGrid<D>& grid,
                       std::span<const Vec<D>> pos, std::size_t ncore,
                       double rc, const PairDisp<D>& disp, Team& team,
                       FusedBuildScratch& scratch,
                       std::vector<Vec<D>>& cell_buf,
                       Counters* counters = nullptr) {
  out.clear();
  const ChunkMap cm = ChunkMap::of(grid);
  const int t_count = team.size();
  const auto tsz = static_cast<std::size_t>(t_count);
  const auto nsz = static_cast<std::size_t>(cm.nchunks);
  const auto cps = static_cast<std::size_t>(grid.cells_per_slab());
  const auto ncells = static_cast<std::size_t>(grid.ncells());

  ColorPlan& plan = out.plan;
  plan.nchunks = cm.nchunks;
  plan.ncolors = cm.ncolors();
  plan.core_lo.assign(nsz, 0);
  plan.core_hi.assign(nsz, 0);
  plan.halo_lo.assign(nsz, 0);
  plan.halo_hi.assign(nsz, 0);

  scratch.core_buf.resize(tsz);
  scratch.halo_buf.resize(tsz);
  scratch.tally.assign(tsz, LinkGapTally{});
  scratch.core_count.assign(tsz * nsz, 0);
  scratch.halo_count.assign(tsz * nsz, 0);
  scratch.core_dst.resize(tsz * nsz);
  scratch.halo_dst.resize(tsz * nsz);

  const std::size_t nentries = grid.order().size();
  const bool gather = !grid.identity_order();
  if (gather) cell_buf.resize(nentries);
  const CellSnapshot<D> cells =
      gather ? CellSnapshot<D>{std::span<const Vec<D>>(cell_buf.data(),
                                                       nentries),
                               grid.order()}
             : CellSnapshot<D>{pos.first(nentries), grid.order()};

  // Static split of [0, total), same convention as smp::static_block
  // (remainder spread over the first members).  Correctness only needs
  // contiguous ascending cell ranges; matching the team's convention keeps
  // the split aligned with the force pass's cell-derived work.
  auto split = [&](std::size_t total, int tid) {
    const std::size_t chunk = total / tsz;
    const std::size_t rem = total % tsz;
    const auto id = static_cast<std::size_t>(tid);
    const std::size_t lo = chunk * id + (id < rem ? id : rem);
    return std::pair<std::size_t, std::size_t>{
        lo, lo + chunk + (id < rem ? 1 : 0)};
  };

  team.parallel([&](int tid) {
    const auto t = static_cast<std::size_t>(tid);
    if (gather) {
      const auto [k_lo, k_hi] = split(nentries, tid);
      gather_cell_positions(grid, pos, cell_buf, k_lo, k_hi);
      team.barrier();
    }
    const auto [lo, hi] = split(ncells, tid);
    auto& cbuf = scratch.core_buf[t];
    auto& hbuf = scratch.halo_buf[t];
    cbuf.clear();
    hbuf.clear();
    if (lo < hi) {
      // Chunks intersecting [lo, hi): chunk k owns the contiguous cell
      // range [slab_lo(k), slab_hi(k)) * cells_per_slab.
      const int k_first = cm.chunk_of_slab(
          grid.slab_of_cell(static_cast<std::int32_t>(lo)));
      const int k_last = cm.chunk_of_slab(
          grid.slab_of_cell(static_cast<std::int32_t>(hi - 1)));
      for (int k = k_first; k <= k_last; ++k) {
        const auto k_lo = static_cast<std::size_t>(cm.slab_lo(k)) * cps;
        const auto k_hi = static_cast<std::size_t>(cm.slab_hi(k)) * cps;
        const std::size_t sub_lo = std::max(lo, k_lo);
        const std::size_t sub_hi = std::min(hi, k_hi);
        const std::size_t c0 = cbuf.size(), h0 = hbuf.size();
        build_links_range(grid, cells, ncore, rc, disp,
                          static_cast<std::int32_t>(sub_lo),
                          static_cast<std::int32_t>(sub_hi), cbuf, hbuf);
        scratch.core_count[t * nsz + static_cast<std::size_t>(k)] =
            cbuf.size() - c0;
        scratch.halo_count[t * nsz + static_cast<std::size_t>(k)] =
            hbuf.size() - h0;
      }
    }
    team.barrier();
    if (tid == 0) {
      // Layout: walk chunks in storage-rank order (rank_of_chunk is an
      // involution, so it also maps rank -> chunk), threads in tid order
      // within each chunk, assigning destination offsets.
      std::size_t total_core = 0, total_halo = 0;
      for (std::size_t x = 0; x < tsz * nsz; ++x) {
        total_core += scratch.core_count[x];
        total_halo += scratch.halo_count[x];
      }
      out.n_core = total_core;
      out.links.resize(total_core + total_halo);
      std::size_t coff = 0, hoff = total_core;
      for (int r = 0; r < cm.nchunks; ++r) {
        const auto c = static_cast<std::size_t>(cm.rank_of_chunk(r));
        plan.core_lo[c] = coff;
        plan.halo_lo[c] = hoff;
        for (std::size_t tt = 0; tt < tsz; ++tt) {
          scratch.core_dst[tt * nsz + c] = coff;
          scratch.halo_dst[tt * nsz + c] = hoff;
          coff += scratch.core_count[tt * nsz + c];
          hoff += scratch.halo_count[tt * nsz + c];
        }
        plan.core_hi[c] = coff;
        plan.halo_hi[c] = hoff;
      }
    }
    team.barrier();
    // Copy each chunk segment of this thread's buffers to its final slot.
    std::size_t csrc = 0, hsrc = 0;
    for (std::size_t k = 0; k < nsz; ++k) {
      const std::size_t cn = scratch.core_count[t * nsz + k];
      const std::size_t hn = scratch.halo_count[t * nsz + k];
      std::copy(cbuf.begin() + static_cast<std::ptrdiff_t>(csrc),
                cbuf.begin() + static_cast<std::ptrdiff_t>(csrc + cn),
                out.links.begin() +
                    static_cast<std::ptrdiff_t>(scratch.core_dst[t * nsz + k]));
      std::copy(hbuf.begin() + static_cast<std::ptrdiff_t>(hsrc),
                hbuf.begin() + static_cast<std::ptrdiff_t>(hsrc + hn),
                out.links.begin() +
                    static_cast<std::ptrdiff_t>(scratch.halo_dst[t * nsz + k]));
      csrc += cn;
      hsrc += hn;
    }
    if (counters != nullptr) scratch.tally[t].add(cbuf);
  });
  if (counters != nullptr) {
    counters->links_core += out.n_core;
    counters->links_halo += out.size() - out.n_core;
    for (const LinkGapTally& tally : scratch.tally) tally.merge_into(*counters);
  }
}

}  // namespace hdem
