// Training-pipeline tests for the batched ADMM train step:
//  * finite-difference gradient check of the batched conv backward;
//  * whole-batch vs per-sample batch-1 passes (forward and grads);
//  * workspace lifecycle (eval-forward invalidation, release/regrow);
//  * bit-identity of the full ADMM train loop — parameters, optimizer
//    trajectory, Z/U duals and residuals — at 1 vs 4 worker threads (the
//    deterministic-runtime contract extended to the whole training step).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "conv_per_sample.hpp"
#include "core/admm.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "runtime/parallel.hpp"
#include "tensor/check.hpp"
#include "tensor/ops.hpp"

namespace tinyadc {
namespace {

constexpr core::CrossbarDims kDims{128, 128};

/// Scalar loss L = <conv(x), G> used for gradient checking.
double loss_of(nn::Conv2d& conv, const Tensor& x, const Tensor& g) {
  Tensor y = conv.forward(x, /*training=*/true);
  return sum(mul(y, g));
}

TEST(BatchedConv, GradcheckAgainstFiniteDifferences) {
  Rng rng(7);
  nn::Conv2d conv("c", 2, 4, 3, 1, 1, /*bias=*/true, rng);
  Tensor x = Tensor::randn({3, 2, 6, 6}, rng);

  Tensor y0 = conv.forward(x, true);
  Tensor g = Tensor::randn(y0.shape(), rng);
  for (nn::Param* p : conv.params()) p->zero_grad();
  conv.forward(x, true);
  Tensor gx = conv.backward(g);

  const float eps = 1e-2F;
  const double tol = 2e-2;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(x.numel(), 24); ++i) {
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const double lp = loss_of(conv, x, g);
    x.at(i) = orig - eps;
    const double lm = loss_of(conv, x, g);
    x.at(i) = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(gx.at(i), numeric, tol * (std::abs(numeric) + 1.0))
        << "input grad mismatch at " << i;
  }
  for (nn::Param* p : conv.params()) {
    for (std::int64_t i = 0; i < std::min<std::int64_t>(p->value.numel(), 16);
         ++i) {
      const float orig = p->value.at(i);
      p->value.at(i) = orig + eps;
      const double lp = loss_of(conv, x, g);
      p->value.at(i) = orig - eps;
      const double lm = loss_of(conv, x, g);
      p->value.at(i) = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad.at(i), numeric, tol * (std::abs(numeric) + 1.0))
          << "param " << p->name << " grad mismatch at " << i;
    }
  }
}

/// The whole-batch backward equals the sum of per-sample batch-1 backwards
/// through a clone of the layer, within 1e-4 (dW sums the batch's N·p
/// pixels in other 64-deep k blocks than a per-sample sum does). The
/// forward is compared too; it is bit-identical (MvmHook tests pin that).
TEST(BatchedConv, MatchesReferencePath) {
  Rng rng(8);
  nn::Conv2d batched("c", 3, 6, 3, 2, 1, /*bias=*/true, rng);
  auto ref_ptr = batched.clone();
  auto& ref = static_cast<nn::Conv2d&>(*ref_ptr);

  Tensor x = Tensor::randn({4, 3, 9, 9}, rng);
  Tensor yb = batched.forward(x, true);
  Tensor yr = test::per_sample_forward(ref, x, true);
  ASSERT_EQ(yb.shape(), yr.shape());
  for (std::int64_t i = 0; i < yb.numel(); ++i)
    EXPECT_NEAR(yb.at(i), yr.at(i), 1e-4) << "forward mismatch at " << i;

  Tensor g = Tensor::randn(yb.shape(), rng);
  Tensor gxb = batched.backward(g);
  Tensor gxr = test::per_sample_backward(ref, x, g);
  for (std::int64_t i = 0; i < gxb.numel(); ++i)
    EXPECT_NEAR(gxb.at(i), gxr.at(i), 1e-4) << "dinput mismatch at " << i;
  const Tensor& gwb = batched.weight().grad;
  const Tensor& gwr = ref.weight().grad;
  for (std::int64_t i = 0; i < gwb.numel(); ++i)
    EXPECT_NEAR(gwb.at(i), gwr.at(i), 1e-4) << "dW mismatch at " << i;
  for (std::int64_t i = 0; i < batched.bias().grad.numel(); ++i)
    EXPECT_NEAR(batched.bias().grad.at(i), ref.bias().grad.at(i), 1e-4)
        << "dbias mismatch at " << i;
}

TEST(BatchedConv, EvalForwardInvalidatesTrainingCache) {
  Rng rng(9);
  nn::Conv2d conv("c", 2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor y = conv.forward(x, /*training=*/true);
  conv.forward(x, /*training=*/false);  // eval pass clobbers the workspace
  Tensor g = Tensor::randn(y.shape(), rng);
  EXPECT_THROW(conv.backward(g), CheckError);
}

TEST(BatchedConv, ReleaseWorkspaceRegrows) {
  Rng rng(10);
  nn::Conv2d conv("c", 2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor y1 = conv.forward(x, true);
  Tensor g = Tensor::randn(y1.shape(), rng);
  conv.backward(g);

  conv.release_workspace();
  // A released workspace also drops any cached forward...
  EXPECT_THROW(conv.backward(g), CheckError);
  // ...but the next forward regrows it and the path works end to end,
  // reproducing the pre-release output exactly (weights unchanged).
  Tensor y2 = conv.forward(x, true);
  ASSERT_EQ(y1.numel(), y2.numel());
  EXPECT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           sizeof(float) * static_cast<std::size_t>(y1.numel())));
  conv.backward(g);
}

// ---------------------------------------------------------------------------
// Full-train-step determinism across thread counts.
// ---------------------------------------------------------------------------

struct TrainResult {
  std::vector<float> snapshot;  ///< params (value+grad) then Z/U per layer
  double primal = 0.0;
  double dual = 0.0;
};

/// Runs K=3 ADMM-attached train steps plus one extra plain step (the extra
/// step only matches across runs if the optimizer's momentum state matched
/// bit-for-bit after the first K), all at `threads` worker threads.
TrainResult run_admm_training(int threads, const data::Batch& batch) {
  runtime::set_thread_count(threads);
  nn::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 8;
  mc.width_mult = 0.125F;
  auto model = nn::build_model("resnet18", mc);

  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.sgd.lr = 0.05F;
  tc.sgd.total_epochs = 4;
  nn::Trainer trainer(*model, tc);

  auto specs = core::uniform_cp_specs(*model, 8, kDims);
  core::AdmmPruner pruner(*model, specs, kDims, core::AdmmConfig{0.1F, 1});
  pruner.attach(trainer);

  TrainResult result;
  for (int step = 0; step < 3; ++step) {
    trainer.train_step(batch, 0);
    const core::AdmmResiduals res = pruner.update_duals();
    result.primal = res.primal;
    result.dual = res.dual;
  }
  trainer.train_step(batch, 0);  // momentum-state identity probe

  for (const nn::Param* p : model->params()) {
    const float* v = p->value.data();
    result.snapshot.insert(result.snapshot.end(), v, v + p->value.numel());
    const float* g = p->grad.data();
    result.snapshot.insert(result.snapshot.end(), g, g + p->grad.numel());
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& z = pruner.z(i);
    const auto& u = pruner.u(i);
    result.snapshot.insert(result.snapshot.end(), z.begin(), z.end());
    result.snapshot.insert(result.snapshot.end(), u.begin(), u.end());
  }
  runtime::set_thread_count(0);
  return result;
}

TEST(TrainStepDeterminism, BitIdenticalAtOneVsFourThreads) {
  data::SyntheticSpec spec = data::tier_by_name("cifar10");
  spec.image_size = 8;
  spec.train_per_class = 4;
  spec.test_per_class = 2;
  data::DatasetPair ds = data::make_synthetic(spec);
  data::BatchIterator it(ds.train, 16, nullptr);
  data::Batch batch;
  ASSERT_TRUE(it.next(batch));

  const TrainResult a = run_admm_training(1, batch);
  const TrainResult b = run_admm_training(4, batch);

  ASSERT_EQ(a.snapshot.size(), b.snapshot.size());
  ASSERT_FALSE(a.snapshot.empty());
  EXPECT_EQ(0, std::memcmp(a.snapshot.data(), b.snapshot.data(),
                           sizeof(float) * a.snapshot.size()))
      << "train-step state diverged across thread counts";
  // Residuals use per-chunk partial sums merged in fixed order — exact too.
  EXPECT_EQ(a.primal, b.primal);
  EXPECT_EQ(a.dual, b.dual);
  EXPECT_GT(a.primal, 0.0);
}

}  // namespace
}  // namespace tinyadc
