#include "autograd/tape.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/spmm.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace hosr::autograd {

using tensor::Matrix;

void Tape::Reset() {
  for (size_t i = 0; i < num_nodes_; ++i) {
    internal::Node* node = nodes_[i].get();
    Give(&node->owned_value);
    Give(&node->grad);
    Give(&node->aux);
    *node = internal::Node();
  }
  for (const auto& sink : sinks_) {
    for (SparseSink::OpSegment& seg : sink->ops) Give(&seg.grads);
  }
  num_nodes_ = 0;
  sinks_.clear();
  param_leaves_.clear();
  swept_ = false;
}

Matrix Tape::Take(size_t rows, size_t cols) {
  // Best fit: the smallest buffer that holds rows x cols, else the largest.
  const size_t need = rows * cols;
  size_t best = 0;
  for (size_t i = 1; i < free_.size(); ++i) {
    const size_t cap = free_[i].capacity();
    const size_t best_cap = free_[best].capacity();
    if (best_cap < need ? cap > best_cap : cap >= need && cap < best_cap) {
      best = i;
    }
  }
  Matrix m;
  if (best < free_.size()) {
    m = std::move(free_[best]);
    free_[best] = std::move(free_.back());
    free_.pop_back();
  }
  const size_t had = m.capacity();
  m.Reshape(rows, cols);
  if (m.capacity() > had) {
    HOSR_COUNTER("autograd/tape_alloc_bytes")
        .Increment((m.capacity() - had) * sizeof(float));
  }
  return m;
}

void Tape::Give(Matrix* m) {
  if (m->capacity() > 0) free_.push_back(std::move(*m));
}

internal::Node* Tape::NewLeaf(const Matrix* value, bool requires_grad) {
  if (num_nodes_ == nodes_.size()) {
    nodes_.push_back(std::make_unique<internal::Node>());
  }
  internal::Node* node = nodes_[num_nodes_++].get();
  node->value_ptr = value;
  node->requires_grad = requires_grad;
  return node;
}

internal::Node* Tape::NewNode(size_t rows, size_t cols, bool requires_grad) {
  internal::Node* node = NewLeaf(nullptr, requires_grad);
  node->owned_value = Take(rows, cols);
  node->value_ptr = &node->owned_value;
  return node;
}

internal::Node* Tape::NewNode(const Matrix& like, bool requires_grad) {
  return NewNode(like.rows(), like.cols(), requires_grad);
}

Matrix* Tape::GradFor(internal::Node* node, bool* first_touch) {
  HOSR_CHECK(node->sparse_sink < 0)
      << "sparse leaves support only GatherRows consumers";
  *first_touch = !node->grad_live;
  if (*first_touch) {
    node->grad = Take(node->value().rows(), node->value().cols());
    node->grad_live = true;
  }
  return &node->grad;
}

Matrix* Tape::GradFor(internal::Node* node) {
  bool first_touch = false;
  Matrix* grad = GradFor(node, &first_touch);
  if (first_touch) grad->SetZero();
  return grad;
}

// The hot backward passes below accumulate straight into their inputs'
// gradients with the float operations of the temporary-then-Axpy they
// replace (Axpy with alpha +-1 adds exactly).
template <typename Term>
void Tape::Accumulate(internal::Node* node, const Term& term) {
  bool first = false;
  float* g = GradFor(node, &first)->data();
  util::ParallelForEach(0, node->grad.size(), [g, first, &term](size_t i) {
    g[i] = (first ? 0.0f : g[i]) + term(i);
  });
}

void Tape::AccumulateRowScaled(internal::Node* node, const Matrix& src,
                               const Matrix& scale) {
  bool first = false;
  Matrix* g = GradFor(node, &first);
  const size_t cols = src.cols();
  util::ParallelFor(
      0, src.rows(),
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const float s = scale(r, 0);
          const float* sr = src.row(r);
          float* gr = g->row(r);
          for (size_t c = 0; c < cols; ++c) {
            gr[c] = (first ? 0.0f : gr[c]) + sr[c] * s;
          }
        }
      },
      util::GrainFor(cols));
}

Value Tape::Param(autograd::Param* param) {
  internal::Node* node = NewLeaf(&param->value, /*requires_grad=*/true);
  node->param = param;
  param_leaves_.push_back(param);
  node->backward = [node] {
    tensor::Axpy(1.0f, node->grad, &node->param->grad);
  };
  return Value(node);
}

Value Tape::Constant(const Matrix& m) {
  internal::Node* node = NewNode(m, /*requires_grad=*/false);
  std::copy(m.data(), m.data() + m.size(), node->owned_value.data());
  return Value(node);
}

Value Tape::SparseParam(autograd::Param* param) {
  HOSR_CHECK(param != nullptr);
  auto sink = std::make_unique<SparseSink>();
  sink->param = param;
  sink->cols = param->value.cols();
  internal::Node* node = NewLeaf(&param->value, /*requires_grad=*/true);
  node->sparse_sink = static_cast<int>(sinks_.size());
  sinks_.push_back(std::move(sink));
  return Value(node);
}

Value Tape::SparseShared(int key, const tensor::Matrix* values) {
  HOSR_CHECK(values != nullptr);
  HOSR_CHECK(key >= 0) << "shared keys are non-negative";
  auto sink = std::make_unique<SparseSink>();
  sink->shared_key = key;
  sink->cols = values->cols();
  internal::Node* node = NewLeaf(values, /*requires_grad=*/true);
  node->sparse_sink = static_cast<int>(sinks_.size());
  sinks_.push_back(std::move(sink));
  return Value(node);
}

Value Tape::MatMul(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(an->value().rows(), bn->value().cols(),
                                an->requires_grad || bn->requires_grad);
  tensor::Gemm(an->value(), false, bn->value(), false, 1.0f, 0.0f,
               &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      // beta = 0 on first touch: Gemm zeroes each row, then accumulates.
      bool first = false;
      if (an->requires_grad) {
        Matrix* ga = GradFor(an, &first);
        tensor::Gemm(out->grad, false, bn->value(), true, 1.0f,
                     first ? 0.0f : 1.0f, ga);
      }
      if (bn->requires_grad) {
        Matrix* gb = GradFor(bn, &first);
        tensor::Gemm(an->value(), true, out->grad, false, 1.0f,
                     first ? 0.0f : 1.0f, gb);
      }
    };
  }
  return Value(out);
}

Value Tape::SpMM(const graph::CsrMatrix* matrix,
                 const graph::CsrMatrix* transpose, Value dense) {
  HOSR_CHECK(matrix != nullptr && transpose != nullptr);
  HOSR_CHECK(transpose->num_rows() == matrix->num_cols() &&
             transpose->num_cols() == matrix->num_rows())
      << "transpose shape mismatch";
  internal::Node* dn = dense.node_;
  internal::Node* out = NewNode(matrix->num_rows(), dn->value().cols(),
                                dn->requires_grad);
  graph::Spmm(*matrix, dn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, dn, transpose] {
      // On first touch the product becomes the gradient itself: 0 + x == x
      // for every x it can hold (its rows accumulate from +0, so never -0).
      bool first = false;
      Matrix* gd = GradFor(dn, &first);
      if (first) {
        graph::Spmm(*transpose, out->grad, gd);
        return;
      }
      Matrix partial = Take(gd->rows(), gd->cols());
      graph::Spmm(*transpose, out->grad, &partial);
      const float* p = partial.data();
      Accumulate(dn, [p](size_t i) { return p[i]; });
      Give(&partial);
    };
  }
  return Value(out);
}

Value Tape::GatherRows(Value a, std::vector<uint32_t> indices) {
  internal::Node* an = a.node_;
  internal::Node* out =
      NewNode(indices.size(), an->value().cols(), an->requires_grad);
  tensor::GatherRows(an->value(), indices, &out->owned_value);
  if (an->sparse_sink >= 0) {
    // Sparse leaf: instead of scatter-adding into a dense grad, hand the
    // (rows, grad rows) pair — already in scan order — to the leaf's sink
    // segment registered at creation time. Pure moves; the caller (the
    // parallel trainer's reducer) owns the accumulation order.
    SparseSink* sink = sinks_[an->sparse_sink].get();
    const size_t op_index = sink->ops.size();
    sink->ops.emplace_back();
    out->backward = [out, sink, op_index,
                     indices = std::move(indices)]() mutable {
      SparseSink::OpSegment& seg = sink->ops[op_index];
      seg.rows = std::move(indices);
      seg.grads = std::move(out->grad);
    };
  } else if (out->requires_grad) {
    out->backward = [this, out, an, indices = std::move(indices)] {
      tensor::ScatterAddRows(out->grad, indices, GradFor(an));
    };
  }
  return Value(out);
}

Value Tape::Add(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out =
      NewNode(an->value(), an->requires_grad || bn->requires_grad);
  tensor::Add(an->value(), bn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      const float* g = out->grad.data();
      if (bn->requires_grad) Accumulate(bn, [g](size_t i) { return g[i]; });
      if (an->requires_grad) {
        // A first touch takes the gradient itself: 0 + g == g, as no
        // gradient holds -0 (each one starts as 0 + something).
        bool first = false;
        Matrix* ga = GradFor(an, &first);
        if (first) {
          std::swap(*ga, out->grad);
        } else {
          Accumulate(an, [g](size_t i) { return g[i]; });
        }
      }
    };
  }
  return Value(out);
}

Value Tape::Sub(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out =
      NewNode(an->value(), an->requires_grad || bn->requires_grad);
  tensor::Sub(an->value(), bn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      const float* g = out->grad.data();
      if (an->requires_grad) Accumulate(an, [g](size_t i) { return g[i]; });
      if (bn->requires_grad) Accumulate(bn, [g](size_t i) { return -g[i]; });
    };
  }
  return Value(out);
}

Value Tape::Hadamard(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out =
      NewNode(an->value(), an->requires_grad || bn->requires_grad);
  tensor::Hadamard(an->value(), bn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      const float* g = out->grad.data();
      const float* av = an->value().data();
      const float* bv = bn->value().data();
      if (an->requires_grad) {
        Accumulate(an, [g, bv](size_t i) { return g[i] * bv[i]; });
      }
      if (bn->requires_grad) {
        Accumulate(bn, [g, av](size_t i) { return g[i] * av[i]; });
      }
    };
  }
  return Value(out);
}

Value Tape::Scale(Value a, float s) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  tensor::Scale(an->value(), s, &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, s] {
      tensor::Axpy(s, out->grad, GradFor(an));
    };
  }
  return Value(out);
}

Value Tape::Tanh(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  tensor::Tanh(an->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      const float* y = out->value().data();
      const float* g = out->grad.data();
      Accumulate(an, [y, g](size_t i) { return g[i] * (1.0f - y[i] * y[i]); });
    };
  }
  return Value(out);
}

Value Tape::Relu(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  tensor::Relu(an->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      // Adding the 0 of a dead unit leaves every accumulator as it was:
      // they start at +0 and so never hold -0.
      const float* x = an->value().data();
      const float* g = out->grad.data();
      Accumulate(an,
                 [x, g](size_t i) { return tensor::ReluSelect(x[i], g[i]); });
    };
  }
  return Value(out);
}

Value Tape::LeakyRelu(Value a, float slope) {
  HOSR_CHECK(slope >= 0.0f && slope < 1.0f) << slope;
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  const float* xp = an->value().data();
  float* yp = out->owned_value.data();
  for (size_t i = 0; i < out->owned_value.size(); ++i) {
    yp[i] = xp[i] < 0.0f ? xp[i] * slope : xp[i];
  }
  if (out->requires_grad) {
    out->backward = [this, out, an, slope] {
      const float* x = an->value().data();
      const float* g = out->grad.data();
      Accumulate(an, [x, g, slope](size_t i) {
        return g[i] * (x[i] > 0.0f ? 1.0f : slope);
      });
    };
  }
  return Value(out);
}

Value Tape::Sigmoid(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  tensor::Sigmoid(an->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      const float* y = out->value().data();
      const float* g = out->grad.data();
      Accumulate(an, [y, g](size_t i) { return g[i] * y[i] * (1.0f - y[i]); });
    };
  }
  return Value(out);
}

Value Tape::LogSigmoid(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  // log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)), stable for all x.
  const float* xp = an->value().data();
  float* yp = out->owned_value.data();
  for (size_t i = 0; i < out->owned_value.size(); ++i) {
    const float x = xp[i];
    yp[i] = std::min(x, 0.0f) - std::log1p(std::exp(-std::fabs(x)));
  }
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      // d/dx log(sigmoid(x)) = sigmoid(-x).
      const float* x = an->value().data();
      const float* g = out->grad.data();
      Accumulate(an, [x, g](size_t i) { return g[i] / (1.0f + std::exp(x[i])); });
    };
  }
  return Value(out);
}

Value Tape::AddRowBroadcast(Value a, Value bias) {
  internal::Node* an = a.node_;
  internal::Node* bn = bias.node_;
  HOSR_CHECK(bn->value().rows() == 1 &&
             bn->value().cols() == an->value().cols())
      << "bias must be (1 x " << an->value().cols() << ")";
  internal::Node* out =
      NewNode(an->value(), an->requires_grad || bn->requires_grad);
  const float* bp = bn->value().data();
  for (size_t r = 0; r < out->owned_value.rows(); ++r) {
    const float* ar = an->value().row(r);
    float* yr = out->owned_value.row(r);
    for (size_t c = 0; c < out->owned_value.cols(); ++c) yr[c] = ar[c] + bp[c];
  }
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      if (an->requires_grad) tensor::Axpy(1.0f, out->grad, GradFor(an));
      if (bn->requires_grad) {
        Matrix col_sum = Take(1, out->grad.cols());
        tensor::ColSum(out->grad, &col_sum);
        tensor::Axpy(1.0f, col_sum, GradFor(bn));
        Give(&col_sum);
      }
    };
  }
  return Value(out);
}

Value Tape::BroadcastColMul(Value a, Value s) {
  internal::Node* an = a.node_;
  internal::Node* sn = s.node_;
  internal::Node* out =
      NewNode(an->value(), an->requires_grad || sn->requires_grad);
  tensor::BroadcastColMul(an->value(), sn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, sn] {
      if (an->requires_grad) AccumulateRowScaled(an, out->grad, sn->value());
      if (sn->requires_grad) {
        const kernels::KernelTable& kern = kernels::Active();
        const Matrix& g = out->grad;
        const Matrix& av = an->value();
        bool first = false;
        float* gs = GradFor(sn, &first)->data();
        util::ParallelForEach(
            0, g.rows(),
            [&](size_t r) {
              gs[r] = (first ? 0.0f : gs[r]) +
                      kern.dot(g.cols(), g.row(r), av.row(r));
            },
            util::GrainFor(g.cols()));
      }
    };
  }
  return Value(out);
}

Value Tape::ConcatCols(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  const Matrix& av = an->value();
  const Matrix& bv = bn->value();
  HOSR_CHECK(av.rows() == bv.rows());
  internal::Node* out = NewNode(av.rows(), av.cols() + bv.cols(),
                                an->requires_grad || bn->requires_grad);
  for (size_t r = 0; r < av.rows(); ++r) {
    float* yr = out->owned_value.row(r);
    const float* ar = av.row(r);
    const float* br = bv.row(r);
    std::copy(ar, ar + av.cols(), yr);
    std::copy(br, br + bv.cols(), yr + av.cols());
  }
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      const size_t a_cols = an->value().cols();
      const size_t b_cols = bn->value().cols();
      if (an->requires_grad) {
        Matrix* ga = GradFor(an);
        for (size_t r = 0; r < ga->rows(); ++r) {
          const float* gr = out->grad.row(r);
          float* gar = ga->row(r);
          for (size_t c = 0; c < a_cols; ++c) gar[c] += gr[c];
        }
      }
      if (bn->requires_grad) {
        Matrix* gb = GradFor(bn);
        for (size_t r = 0; r < gb->rows(); ++r) {
          const float* gr = out->grad.row(r) + a_cols;
          float* gbr = gb->row(r);
          for (size_t c = 0; c < b_cols; ++c) gbr[c] += gr[c];
        }
      }
    };
  }
  return Value(out);
}

Value Tape::SliceCols(Value a, size_t col_begin, size_t num_cols) {
  internal::Node* an = a.node_;
  const Matrix& av = an->value();
  HOSR_CHECK(col_begin + num_cols <= av.cols())
      << "slice [" << col_begin << ", " << col_begin + num_cols << ") of "
      << av.cols() << " cols";
  internal::Node* out = NewNode(av.rows(), num_cols, an->requires_grad);
  for (size_t r = 0; r < av.rows(); ++r) {
    const float* ar = av.row(r) + col_begin;
    std::copy(ar, ar + num_cols, out->owned_value.row(r));
  }
  if (out->requires_grad) {
    out->backward = [this, out, an, col_begin, num_cols] {
      Matrix* ga = GradFor(an);
      for (size_t r = 0; r < ga->rows(); ++r) {
        const float* gr = out->grad.row(r);
        float* gar = ga->row(r) + col_begin;
        for (size_t c = 0; c < num_cols; ++c) gar[c] += gr[c];
      }
    };
  }
  return Value(out);
}

Value Tape::RowDot(Value a, Value b) {
  internal::Node* an = a.node_;
  internal::Node* bn = b.node_;
  internal::Node* out = NewNode(an->value().rows(), 1,
                                an->requires_grad || bn->requires_grad);
  tensor::RowDot(an->value(), bn->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an, bn] {
      if (an->requires_grad) AccumulateRowScaled(an, bn->value(), out->grad);
      if (bn->requires_grad) AccumulateRowScaled(bn, an->value(), out->grad);
    };
  }
  return Value(out);
}

Value Tape::RowSoftmax(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  tensor::RowSoftmax(an->value(), &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      // dx_rc = s_rc * (g_rc - sum_j g_rj s_rj).
      Matrix* ga = GradFor(an);
      const Matrix& s = out->value();
      const Matrix& g = out->grad;
      for (size_t r = 0; r < s.rows(); ++r) {
        const float* sr = s.row(r);
        const float* gr = g.row(r);
        float* gar = ga->row(r);
        float dot = 0.0f;
        for (size_t c = 0; c < s.cols(); ++c) dot += gr[c] * sr[c];
        for (size_t c = 0; c < s.cols(); ++c) {
          gar[c] += sr[c] * (gr[c] - dot);
        }
      }
    };
  }
  return Value(out);
}

namespace {

void CheckSegmentOffsets(const std::vector<size_t>& offsets, size_t total) {
  HOSR_CHECK(offsets.size() >= 2) << "need at least one segment";
  HOSR_CHECK(offsets.front() == 0 && offsets.back() == total)
      << "offsets must span [0, " << total << "]";
  for (size_t s = 1; s < offsets.size(); ++s) {
    HOSR_CHECK(offsets[s - 1] <= offsets[s]) << "offsets must be ascending";
  }
}

}  // namespace

Value Tape::SegmentSoftmax(Value scores, std::vector<size_t> offsets) {
  internal::Node* an = scores.node_;
  const Matrix& x = an->value();
  HOSR_CHECK(x.cols() == 1) << "SegmentSoftmax expects an (E x 1) column";
  CheckSegmentOffsets(offsets, x.rows());

  // The segments partition the column, so every entry is written.
  internal::Node* out = NewNode(x.rows(), 1, an->requires_grad);
  Matrix& y = out->owned_value;
  const size_t num_segments = offsets.size() - 1;
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t begin = offsets[s];
    const size_t end = offsets[s + 1];
    if (begin == end) continue;
    float max_val = x(begin, 0);
    for (size_t e = begin + 1; e < end; ++e) {
      max_val = std::max(max_val, x(e, 0));
    }
    float denom = 0.0f;
    for (size_t e = begin; e < end; ++e) {
      y(e, 0) = std::exp(x(e, 0) - max_val);
      denom += y(e, 0);
    }
    const float inv = 1.0f / denom;
    for (size_t e = begin; e < end; ++e) y(e, 0) *= inv;
  }
  if (out->requires_grad) {
    out->backward = [this, out, an, offsets = std::move(offsets)] {
      // Per segment: dx_e = s_e * (g_e - sum_j g_j s_j).
      Matrix* ga = GradFor(an);
      const Matrix& s_val = out->value();
      const Matrix& g = out->grad;
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const size_t begin = offsets[s];
        const size_t end = offsets[s + 1];
        float dot = 0.0f;
        for (size_t e = begin; e < end; ++e) dot += g(e, 0) * s_val(e, 0);
        for (size_t e = begin; e < end; ++e) {
          (*ga)(e, 0) += s_val(e, 0) * (g(e, 0) - dot);
        }
      }
    };
  }
  return Value(out);
}

Value Tape::SegmentWeightedSum(Value alpha, Value feats,
                               std::vector<size_t> offsets) {
  internal::Node* alpha_node = alpha.node_;
  internal::Node* feats_node = feats.node_;
  const Matrix& a_val = alpha_node->value();
  const Matrix& f_val = feats_node->value();
  HOSR_CHECK(a_val.cols() == 1) << "alpha must be (E x 1)";
  HOSR_CHECK(a_val.rows() == f_val.rows())
      << a_val.rows() << " vs " << f_val.rows();
  CheckSegmentOffsets(offsets, a_val.rows());

  const size_t num_segments = offsets.size() - 1;
  const size_t d = f_val.cols();
  internal::Node* out =
      NewNode(num_segments, d,
              alpha_node->requires_grad || feats_node->requires_grad);
  Matrix& y = out->owned_value;
  y.SetZero();
  for (size_t s = 0; s < num_segments; ++s) {
    float* out_row = y.row(s);
    for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      const float w = a_val(e, 0);
      const float* fr = f_val.row(e);
      for (size_t c = 0; c < d; ++c) out_row[c] += w * fr[c];
    }
  }
  if (out->requires_grad) {
    out->backward = [this, out, alpha_node, feats_node,
                     offsets = std::move(offsets)] {
      const Matrix& a_v = alpha_node->value();
      const Matrix& f_v = feats_node->value();
      const size_t dim = f_v.cols();
      Matrix* ga = alpha_node->requires_grad ? GradFor(alpha_node) : nullptr;
      Matrix* gf = feats_node->requires_grad ? GradFor(feats_node) : nullptr;
      for (size_t s = 0; s + 1 < offsets.size(); ++s) {
        const float* grad_row = out->grad.row(s);
        for (size_t e = offsets[s]; e < offsets[s + 1]; ++e) {
          if (ga != nullptr) {
            const float* fr = f_v.row(e);
            float acc = 0.0f;
            for (size_t c = 0; c < dim; ++c) acc += grad_row[c] * fr[c];
            (*ga)(e, 0) += acc;
          }
          if (gf != nullptr) {
            const float w = a_v(e, 0);
            float* gfr = gf->row(e);
            for (size_t c = 0; c < dim; ++c) gfr[c] += w * grad_row[c];
          }
        }
      }
    };
  }
  return Value(out);
}

Value Tape::Dropout(Value a, float p, bool training, util::Rng* rng) {
  internal::Node* an = a.node_;
  if (!training || p <= 0.0f) return a;
  HOSR_CHECK(p < 1.0f) << "dropout probability must be < 1";
  HOSR_CHECK(rng != nullptr);
  const float keep_scale = 1.0f / (1.0f - p);
  internal::Node* out = NewNode(an->value(), an->requires_grad);
  Matrix& mask = out->aux;
  mask = Take(an->value().rows(), an->value().cols());
  float* mp = mask.data();
  for (size_t i = 0; i < mask.size(); ++i) {
    mp[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  tensor::Hadamard(an->value(), mask, &out->owned_value);
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      const float* g = out->grad.data();
      const float* m = out->aux.data();
      Accumulate(an, [g, m](size_t i) { return g[i] * m[i]; });
    };
  }
  return Value(out);
}

Value Tape::Mean(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(1, 1, an->requires_grad);
  out->owned_value(0, 0) = static_cast<float>(tensor::Mean(an->value()));
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      const float g =
          out->grad(0, 0) / static_cast<float>(an->value().size());
      Accumulate(an, [g](size_t) { return g; });
    };
  }
  return Value(out);
}

Value Tape::Sum(Value a) {
  internal::Node* an = a.node_;
  internal::Node* out = NewNode(1, 1, an->requires_grad);
  out->owned_value(0, 0) = static_cast<float>(tensor::Sum(an->value()));
  if (out->requires_grad) {
    out->backward = [this, out, an] {
      Accumulate(an, [g = out->grad(0, 0)](size_t) { return g; });
    };
  }
  return Value(out);
}

void Tape::Backward(Value loss) {
  internal::Node* loss_node = loss.node_;
  HOSR_CHECK(loss_node != nullptr);
  HOSR_CHECK(loss_node->value().rows() == 1 &&
             loss_node->value().cols() == 1)
      << "Backward requires a scalar (1x1) loss";
  HOSR_CHECK(loss_node->requires_grad)
      << "loss does not depend on any parameter";
  Matrix* g = GradFor(loss_node);
  (*g)(0, 0) += 1.0f;
  Sweep();
}

Matrix* Tape::SeedGrad(Value node) {
  HOSR_CHECK(node.node_ != nullptr && node.node_->requires_grad);
  HOSR_CHECK(!node.node_->grad_live) << "seeded node already has a gradient";
  return GradFor(node.node_);
}

void Tape::BackwardSeeded() { Sweep(); }

void Tape::Sweep() {
  HOSR_CHECK(!swept_) << "a built graph is swept once; Reset and rebuild";
  swept_ = true;
  // Creation order is a topological order, so a single reverse sweep
  // propagates complete gradients, and no node's gradient is touched again
  // once its own backward has run.
  for (size_t i = num_nodes_; i-- > 0;) {
    internal::Node* node = nodes_[i].get();
    if (node->grad_live && node->backward) node->backward();
    Give(&node->grad);
  }
}

}  // namespace hosr::autograd
