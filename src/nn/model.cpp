#include "nn/model.hpp"

#include "artifact/format.hpp"
#include "nn/batchnorm.hpp"

namespace tinyadc::nn {

namespace {
// Payload version of the model-state artifact section.
constexpr std::uint32_t kModelSectionVersion = 1;
}  // namespace

namespace {

Tensor transpose_storage(const Tensor& storage, std::int64_t rows,
                         std::int64_t cols) {
  // storage is (cols × rows) row-major; produce (rows × cols).
  Tensor m({rows, cols});
  const float* w = storage.data();
  float* p = m.data();
  for (std::int64_t c = 0; c < cols; ++c)
    for (std::int64_t r = 0; r < rows; ++r) p[r * cols + c] = w[c * rows + r];
  return m;
}

}  // namespace

Tensor WeightMatrixView::to_matrix() const {
  TINYADC_CHECK(weight != nullptr, "empty WeightMatrixView");
  TINYADC_CHECK(weight->value.numel() == rows * cols,
                "view dims " << rows << "x" << cols << " != param numel "
                             << weight->value.numel());
  return transpose_storage(weight->value, rows, cols);
}

Tensor WeightMatrixView::grad_to_matrix() const {
  TINYADC_CHECK(weight != nullptr, "empty WeightMatrixView");
  return transpose_storage(weight->grad, rows, cols);
}

void WeightMatrixView::from_matrix(const Tensor& m) const {
  TINYADC_CHECK(weight != nullptr, "empty WeightMatrixView");
  TINYADC_CHECK(m.ndim() == 2 && m.dim(0) == rows && m.dim(1) == cols,
                "from_matrix shape " << shape_to_string(m.shape())
                                     << " != " << rows << "x" << cols);
  float* w = weight->value.data();
  const float* p = m.data();
  for (std::int64_t c = 0; c < cols; ++c)
    for (std::int64_t r = 0; r < rows; ++r) w[c * rows + r] = p[r * cols + c];
}

WeightMatrixView matrix_view(Conv2d& conv) {
  WeightMatrixView v;
  v.layer_name = conv.name();
  v.weight = &conv.weight();
  v.cols = conv.out_channels();
  v.rows = conv.in_channels() * conv.kernel() * conv.kernel();
  v.is_conv = true;
  return v;
}

WeightMatrixView matrix_view(Linear& linear) {
  WeightMatrixView v;
  v.layer_name = linear.name();
  v.weight = &linear.weight();
  v.cols = linear.out_features();
  v.rows = linear.in_features();
  v.is_conv = false;
  return v;
}

Model::Model(std::string name, std::unique_ptr<Sequential> root)
    : name_(std::move(name)), root_(std::move(root)) {
  TINYADC_CHECK(root_ != nullptr, "Model requires a root layer");
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  root_->visit([&out](Layer& l) {
    for (Param* p : l.params()) out.push_back(p);
  });
  return out;
}

std::vector<Conv2d*> Model::conv_layers() {
  std::vector<Conv2d*> out;
  root_->visit([&out](Layer& l) {
    if (auto* c = dynamic_cast<Conv2d*>(&l)) out.push_back(c);
  });
  return out;
}

std::vector<Linear*> Model::linear_layers() {
  std::vector<Linear*> out;
  root_->visit([&out](Layer& l) {
    if (auto* fc = dynamic_cast<Linear*>(&l)) out.push_back(fc);
  });
  return out;
}

std::vector<WeightMatrixView> Model::prunable_views() {
  std::vector<WeightMatrixView> out;
  root_->visit([&out](Layer& l) {
    if (auto* c = dynamic_cast<Conv2d*>(&l)) {
      out.push_back(matrix_view(*c));
    } else if (auto* fc = dynamic_cast<Linear*>(&l)) {
      out.push_back(matrix_view(*fc));
    }
  });
  return out;
}

std::int64_t Model::param_count() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

Model Model::clone() const {
  LayerPtr root = root_->clone();
  auto* seq = dynamic_cast<Sequential*>(root.get());
  TINYADC_CHECK(seq != nullptr, "model root must clone to a Sequential");
  root.release();
  return Model(name_, std::unique_ptr<Sequential>(seq));
}

std::vector<TensorRecord> Model::state_records() {
  std::vector<TensorRecord> records;
  for (Param* p : params()) records.push_back({p->name, p->value});
  root_->visit([&records](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      records.push_back({l.name() + ".running_mean", bn->running_mean()});
      records.push_back({l.name() + ".running_var", bn->running_var()});
    }
  });
  return records;
}

void Model::save(const std::string& path) { save_records(path, state_records()); }

void Model::serialize(artifact::SectionWriter& w) {
  const auto records = state_records();
  w.pod(kModelSectionVersion);
  w.str(name_);
  w.pod(static_cast<std::uint64_t>(records.size()));
  for (const auto& r : records) {
    w.str(r.name);
    w.tensor(r.value);
  }
}

void Model::deserialize_state(artifact::SectionReader& r) {
  const auto version = r.pod<std::uint32_t>();
  TINYADC_CHECK(version == kModelSectionVersion,
                "unsupported model section version " << version);
  const std::string name = r.str();
  TINYADC_CHECK(name == name_, "artifact model is '" << name
                                                     << "', expected '"
                                                     << name_ << "'");
  auto live = state_records();
  const auto count = r.pod<std::uint64_t>();
  TINYADC_CHECK(count == live.size(),
                "artifact has " << count << " state records, model needs "
                                << live.size());
  for (auto& rec : live) {
    const std::string rec_name = r.str();
    TINYADC_CHECK(rec_name == rec.name, "artifact record is '"
                                            << rec_name << "', expected '"
                                            << rec.name << "'");
    const Tensor value = r.tensor();
    TINYADC_CHECK(value.shape() == rec.value.shape(),
                  "artifact record '" << rec_name << "' has shape "
                                      << shape_to_string(value.shape())
                                      << ", expected "
                                      << shape_to_string(rec.value.shape()));
    rec.value.copy_from(value);
  }
}

void Model::load(const std::string& path) {
  const auto loaded = load_records(path);
  auto live = state_records();
  TINYADC_CHECK(loaded.size() == live.size(),
                "checkpoint has " << loaded.size() << " records, model needs "
                                  << live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    TINYADC_CHECK(loaded[i].name == live[i].name,
                  "checkpoint record " << i << " is '" << loaded[i].name
                                       << "', expected '" << live[i].name
                                       << "'");
    live[i].value.copy_from(loaded[i].value);
  }
}

}  // namespace tinyadc::nn
