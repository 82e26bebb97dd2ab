#include "oracle.hpp"

#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "sparse/triple_mat.hpp"

namespace e2e {

namespace {
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

void Fingerprint::add(const casp::CscMat& piece, casp::Index row0,
                      casp::Index col0) {
  for (casp::Index j = 0; j < piece.ncols(); ++j) {
    const std::uint64_t hc =
        mix(static_cast<std::uint64_t>(col0 + j) + 0x9e3779b97f4a7c15ULL);
    const auto rows = piece.col_rowids(j);
    const auto vals = piece.col_vals(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::uint64_t h =
          mix(hc ^ static_cast<std::uint64_t>(row0 + rows[k]));
      pattern += h;
      const double w = 1.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
      weighted += vals[k] * w;
      magnitude += std::abs(vals[k]) * w;
    }
    nnz += rows.size();
  }
}

Fingerprint& Fingerprint::operator+=(const Fingerprint& other) {
  nnz += other.nnz;
  pattern += other.pattern;
  weighted += other.weighted;
  magnitude += other.magnitude;
  return *this;
}

std::string compare(const Fingerprint& got, const Fingerprint& want) {
  std::ostringstream why;
  if (got.nnz != want.nnz) {
    why << "output nnz " << got.nnz << " != reference " << want.nnz;
  } else if (got.pattern != want.pattern) {
    why << "output pattern differs from the reference";
  } else if (std::abs(got.weighted - want.weighted) >
             1e-9 * std::max(want.magnitude, 1e-300)) {
    why.precision(17);
    why << "output values differ: weighted sum " << got.weighted
        << " vs reference " << want.weighted;
  }
  return why.str();
}

std::string compare_partitions(const std::vector<casp::Index>& got,
                               const std::vector<casp::Index>& want) {
  if (got.size() != want.size()) return "cluster vector length differs";
  std::unordered_map<casp::Index, casp::Index> g2w;
  std::unordered_map<casp::Index, casp::Index> w2g;
  for (std::size_t v = 0; v < got.size(); ++v) {
    const auto g = g2w.emplace(got[v], want[v]).first;
    const auto w = w2g.emplace(want[v], got[v]).first;
    if (g->second != want[v] || w->second != got[v])
      return "clusters differ from the serial reference at vertex " +
             std::to_string(v);
  }
  return {};
}

casp::CscMat permute_symmetric(const casp::CscMat& a, std::uint64_t seed,
                               casp::Index parts) {
  const casp::Index n = a.ncols();
  std::vector<casp::Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), casp::Index{0});
  casp::Rng rng(seed);
  for (casp::Index p = 0; p < parts; ++p) {
    const casp::Index lo = casp::part_low(p, parts, n);
    for (casp::Index i = casp::part_low(p + 1, parts, n) - 1; i > lo; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.range(lo, i + 1))]);
  }
  casp::TripleMat t(a.nrows(), a.ncols());
  t.reserve(a.nnz());
  for (casp::Index j = 0; j < a.ncols(); ++j) {
    const auto rows = a.col_rowids(j);
    const auto vals = a.col_vals(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      t.push_back(perm[static_cast<std::size_t>(rows[k])],
                  perm[static_cast<std::size_t>(j)], vals[k]);
  }
  return casp::CscMat::from_triples(std::move(t));
}

}  // namespace e2e
