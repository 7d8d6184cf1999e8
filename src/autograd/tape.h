#ifndef HOSR_AUTOGRAD_TAPE_H_
#define HOSR_AUTOGRAD_TAPE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/param.h"
#include "graph/csr.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace hosr::autograd {

class Tape;

// Row-sparse gradient destination for the parallel trainer's slice tapes
// (docs/PERFORMANCE.md "Parallel training"). A sparse leaf created with
// Tape::SparseParam / Tape::SparseShared routes the backward pass of every
// GatherRows over it into one of these sinks instead of a dense grad
// matrix: each gather op gets its own segment holding (row, grad-row)
// pairs in the exact scan order the monolithic scatter-add would have
// visited them, so the trainer can replay the monolithic accumulation
// fold bit-identically across slices.
struct SparseSink {
  struct OpSegment {
    std::vector<uint32_t> rows;  // target rows, batch scan order
    tensor::Matrix grads;        // (rows.size() x cols), matching order
  };

  Param* param = nullptr;  // target: exactly one of param / shared_key
  int shared_key = -1;     // trainer-assigned id of a shared-forward output
  size_t cols = 0;
  std::vector<OpSegment> ops;  // one per GatherRows, creation order
};

namespace internal {

// One recorded operation. Nodes are heap-allocated so pointers stay stable
// while the tape grows; Value handles wrap these pointers. A reset tape
// reuses its Node objects.
struct Node {
  // Interior nodes own their value; Param leaves alias the Param's matrix.
  tensor::Matrix owned_value;   // from the tape's free list
  const tensor::Matrix* value_ptr = nullptr;
  tensor::Matrix grad;          // from the free list on first accumulation
  tensor::Matrix aux;           // per-op saved state (Dropout's mask)
  bool grad_live = false;       // true once grad holds real data
  bool requires_grad = false;
  Param* param = nullptr;       // set for Param leaves
  int sparse_sink = -1;         // index into the tape's sinks, if a sparse leaf
  // Accumulates input gradients given this node's complete gradient.
  std::function<void()> backward;

  const tensor::Matrix& value() const { return *value_ptr; }
};

}  // namespace internal

// Lightweight handle to a tape node; valid until the tape's next Reset.
class Value {
 public:
  Value() : node_(nullptr) {}

  const tensor::Matrix& value() const { return node_->value(); }
  size_t rows() const { return node_->value().rows(); }
  size_t cols() const { return node_->value().cols(); }

 private:
  friend class Tape;
  explicit Value(internal::Node* node) : node_(node) {}
  internal::Node* node_;
};

// Reverse-mode automatic differentiation over Matrix values.
//
// Usage per training step:
//   tape.Reset();                           // reuse last step's buffers
//   Value u = tape.Param(user_embeddings);
//   ... build the forward graph ...
//   Value loss = tape.Mean(...);            // scalar (1x1)
//   tape.Backward(loss);                    // accumulates into Param::grad
//
// Param gradients *accumulate* across Backward calls until
// ParamStore::ZeroGrad; a built graph is swept once. Every node value and
// gradient comes from the tape's free list, to which Reset returns them, so
// a tape that rebuilds the same graph allocates no matrix storage after its
// first build (the autograd/tape_alloc_bytes counter measures what it does
// allocate). All shape mismatches abort (programming errors).
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Drops the recorded graph, invalidating every Value, and returns its
  // matrices to the free list.
  void Reset();

  // --- Leaves ---------------------------------------------------------

  // Trainable leaf aliasing `param->value`; Backward adds to `param->grad`.
  Value Param(autograd::Param* param);

  // Non-trainable leaf (copies the matrix in).
  Value Constant(const tensor::Matrix& m);

  // --- Sparse leaves (parallel trainer slice tapes) --------------------
  //
  // Like Param / a borrowed constant, except the backward pass does not
  // touch `param->grad` (or any dense matrix): every GatherRows over the
  // leaf records its per-row gradients into a SparseSink segment instead,
  // in batch scan order, and the caller replays the accumulation in
  // whatever order reproduces the monolithic tape (trainer.cc owns that
  // fold). Sparse leaves support ONLY GatherRows consumers — any op that
  // would need a dense gradient for the leaf aborts.

  // Sparse trainable leaf aliasing `param->value`.
  Value SparseParam(autograd::Param* param);

  // Sparse leaf over a borrowed value from another tape (a shared-forward
  // output); `key` identifies the source node to the reducer. `values`
  // must outlive this tape.
  Value SparseShared(int key, const tensor::Matrix* values);

  // --- Linear algebra --------------------------------------------------

  // (n x k) * (k x m) -> (n x m).
  Value MatMul(Value a, Value b);

  // sparse (r x c) times dense (c x d) -> (r x d). `transpose` must be the
  // CSR transpose of `matrix` (pass the same pointer when symmetric); it is
  // used for the backward pass. Both must outlive the tape. The tape only
  // borrows these pointers: build the transpose ONCE per graph (models
  // cache it as a member next to the forward operator) and share it across
  // every epoch, layer, and backward call — never rebuild it per step. The
  // spmm/transpose_builds counter audits this: it must stay flat during
  // training (tests/hosr_test.cc TransposeBuiltOncePerGraph).
  Value SpMM(const graph::CsrMatrix* matrix, const graph::CsrMatrix* transpose,
             Value dense);

  // out(i, :) = a(indices[i], :). Backward scatter-adds.
  Value GatherRows(Value a, std::vector<uint32_t> indices);

  // --- Element-wise ----------------------------------------------------

  Value Add(Value a, Value b);
  Value Sub(Value a, Value b);
  Value Hadamard(Value a, Value b);
  Value Scale(Value a, float s);
  Value Tanh(Value a);
  Value Relu(Value a);
  // max(x, slope * x) with slope in [0, 1) (GAT's edge-score activation).
  Value LeakyRelu(Value a, float slope = 0.2f);
  Value Sigmoid(Value a);
  // Numerically stable log(sigmoid(x)).
  Value LogSigmoid(Value a);

  // --- Broadcast / shape ops -------------------------------------------

  // a (n x d) + bias (1 x d), bias broadcast over rows.
  Value AddRowBroadcast(Value a, Value bias);

  // a (n x d) scaled per-row by s (n x 1).
  Value BroadcastColMul(Value a, Value s);

  // Column-wise concatenation: (n x d1), (n x d2) -> (n x (d1 + d2)).
  Value ConcatCols(Value a, Value b);

  // Columns [col_begin, col_begin + num_cols) of a -> (n x num_cols).
  Value SliceCols(Value a, size_t col_begin, size_t num_cols);

  // Row-wise dot product of equally shaped (n x d) -> (n x 1).
  Value RowDot(Value a, Value b);

  // Numerically-stable softmax along each row of (n x k).
  Value RowSoftmax(Value a);

  // --- Ragged (per-edge) ops for graph attention -------------------------

  // Softmax within each contiguous segment of an (E x 1) column: entries
  // [offsets[s], offsets[s+1]) form segment s. offsets.front() must be 0
  // and offsets.back() == E. Empty segments are allowed.
  Value SegmentSoftmax(Value scores, std::vector<size_t> offsets);

  // out(s, :) = sum over e in segment s of alpha(e, 0) * feats(e, :).
  // alpha is (E x 1), feats is (E x d), result is (num_segments x d) where
  // num_segments == offsets.size() - 1.
  Value SegmentWeightedSum(Value alpha, Value feats,
                           std::vector<size_t> offsets);

  // --- Regularization / reductions -------------------------------------

  // Inverted dropout: keeps entries with prob (1-p), scaling by 1/(1-p).
  // Identity when `training` is false or p == 0.
  Value Dropout(Value a, float p, bool training, util::Rng* rng);

  // Mean over all entries -> (1 x 1).
  Value Mean(Value a);

  // Sum over all entries -> (1 x 1).
  Value Sum(Value a);

  // --- Differentiation --------------------------------------------------

  // Seeds d(loss)/d(loss) = 1 (loss must be 1x1) and runs the reverse
  // sweep, accumulating into every reachable Param's grad.
  void Backward(Value loss);

  // Resuming a shared-forward tape: SeedGrad hands out the zeroed gradient
  // of `node` (which must not already have one) for the caller to fill
  // with its complete value; BackwardSeeded then runs the reverse sweep
  // from the end of the tape. Used by the parallel trainer to finish the
  // shared prefix after reducing the slices' sink gradients straight into
  // the seeds; equivalent to the monolithic sweep reaching those interior
  // nodes with the same accumulated grads.
  tensor::Matrix* SeedGrad(Value node);
  void BackwardSeeded();

  // Sparse sinks in leaf creation order (stable pointers).
  const std::vector<std::unique_ptr<SparseSink>>& sparse_sinks() const {
    return sinks_;
  }

  // Params with a dense leaf on this tape (creation order, may repeat if
  // Param() was called twice for the same parameter).
  const std::vector<autograd::Param*>& param_leaves() const {
    return param_leaves_;
  }

  size_t num_nodes() const { return num_nodes_; }

 private:
  // A fresh node whose owned_value is a rows x cols free-list buffer with
  // unspecified contents, for the op to overwrite.
  internal::Node* NewNode(size_t rows, size_t cols, bool requires_grad);
  internal::Node* NewNode(const tensor::Matrix& like, bool requires_grad);
  internal::Node* NewLeaf(const tensor::Matrix* value, bool requires_grad);

  // Ensures `node->grad` exists and is zeroed, ready for accumulation.
  tensor::Matrix* GradFor(internal::Node* node);
  // Same, but a fresh gradient (*first_touch set) is left unwritten: the
  // caller must write all of it.
  tensor::Matrix* GradFor(internal::Node* node, bool* first_touch);

  // node's gradient[i] += term(i) for every element, split across the
  // pool; a first touch writes 0 + term(i), the float operation of zeroing
  // and then adding, in one pass.
  template <typename Term>
  void Accumulate(internal::Node* node, const Term& term);
  // node's gradient(r, :) += src(r, :) * scale(r, 0), likewise.
  void AccumulateRowScaled(internal::Node* node, const tensor::Matrix& src,
                           const tensor::Matrix& scale);

  // The free list: Take hands out the smallest buffer that holds rows x
  // cols (else grows the largest), contents unspecified; Give takes one
  // back.
  tensor::Matrix Take(size_t rows, size_t cols);
  void Give(tensor::Matrix* m);

  // Runs every live node's backward in reverse creation order, handing
  // each gradient back to the free list once its node has consumed it.
  void Sweep();

  std::vector<std::unique_ptr<internal::Node>> nodes_;  // reused by Reset
  size_t num_nodes_ = 0;                                // live prefix
  std::vector<std::unique_ptr<SparseSink>> sinks_;
  std::vector<autograd::Param*> param_leaves_;
  std::vector<tensor::Matrix> free_;
  bool swept_ = false;
};

}  // namespace hosr::autograd

#endif  // HOSR_AUTOGRAD_TAPE_H_
