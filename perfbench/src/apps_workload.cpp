// apps workload: q75 JPEG encode and decode of a seeded scene with ca8 on
// all four stages, one adaptive JPEG encode, and an adaptive digits-network
// classification batch. jpeg, nn and adapt do all the work; dse and error
// only appear while the ladders are costed during setup.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "adapt/controller.hpp"
#include "adapt/ladder.hpp"
#include "apps/image.hpp"
#include "jpeg/adaptive.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/quant.hpp"
#include "nn/dataset.hpp"
#include "nn/graph.hpp"
#include "nn/mac.hpp"
#include "nn/tileplan.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace axmult;

namespace {

constexpr int kQuality = 75;
constexpr std::size_t kNnBatch = 64;

/// Time spent in and around the adaptive controller during one pass.
struct NnTiming {
  double decide_s = 0.0;
  double observe_s = 0.0;
  double gemm_s = 0.0;  ///< panel GEMMs, between decide and observe
  double macs = 0.0;
  std::uint64_t decides = 0;
};

/// Delegating scheduler that times the adaptive controller's decide and
/// observe calls and the GEMM panel computed between them.
class TimedScheduler final : public nn::TileScheduler {
 public:
  TimedScheduler(nn::TileScheduler& inner, Tracer* tracer, NnTiming& timing)
      : inner_(inner), tracer_(tracer), t_(timing) {}

  [[nodiscard]] std::size_t panel_rows() const override { return inner_.panel_rows(); }
  void begin_gemm(const std::string& layer_name, std::size_t m, std::size_t k_dim,
                  std::size_t n, const nn::RequantState* rq) override {
    inner_.begin_gemm(layer_name, m, k_dim, n, rq);
  }
  [[nodiscard]] nn::TileDecision decide(std::size_t panel, std::size_t row_begin,
                                        std::size_t row_end) override {
    const Clock::time_point t0 = Clock::now();
    const nn::TileDecision d = inner_.decide(panel, row_begin, row_end);
    decided_ = Clock::now();
    t_.decide_s += seconds_between(t0, decided_);
    ++t_.decides;
    tracer_->record("adapt.decide", t0, decided_, panel + 1);
    return d;
  }
  [[nodiscard]] bool observe(std::size_t panel, const std::uint8_t* a, const std::uint8_t* b,
                             const std::int64_t* acc, std::size_t row_begin, std::size_t row_end,
                             std::size_t k_dim, std::size_t n) override {
    const Clock::time_point t0 = Clock::now();
    t_.gemm_s += seconds_between(decided_, t0);
    t_.macs += static_cast<double>(row_end - row_begin) * static_cast<double>(k_dim) *
            static_cast<double>(n);
    tracer_->record("nn.gemm", decided_, t0, panel + 1);
    const bool ok = inner_.observe(panel, a, b, acc, row_begin, row_end, k_dim, n);
    const Clock::time_point t1 = Clock::now();
    t_.observe_s += seconds_between(t0, t1);
    tracer_->record("adapt.observe", t0, t1, panel + 1);
    return ok;
  }
  [[nodiscard]] const nn::MacBackend& top_backend() const override {
    return inner_.top_backend();
  }


 private:
  nn::TileScheduler& inner_;
  Tracer* tracer_;
  NnTiming& t_;
  Clock::time_point decided_;
};

struct AppsInputs {
  apps::Image scene;
  jpeg::CodecPlan ca8_plan;
  adapt::Ladder jpeg_ladder;
  adapt::Ladder nn_ladder;
  nn::Sequential net;
  std::vector<nn::QTensor> batches;
  std::vector<int> labels;
};

adapt::ControllerConfig nn_controller_config(std::uint64_t seed) {
  adapt::ControllerConfig cfg;
  cfg.monitor.seed = seed + 2;
  return cfg;
}

jpeg::AdaptiveOptions jpeg_adaptive_options(std::uint64_t seed) {
  jpeg::AdaptiveOptions o;
  o.slo_psnr_db = 36.0;
  o.seed = seed;
  return o;
}

/// Everything one pass produced that the checks and the digest look at.
struct PassResult {
  std::vector<std::uint8_t> stream;
  jpeg::Decoded decoded;
  jpeg::AdaptiveResult adaptive;
  std::vector<int> predictions;
  adapt::Report nn_report;
  jpeg::EncodeStats encode_stats;
  NnTiming nn_timing;  ///< filled in traced passes only
  double encode_s = 0.0, decode_s = 0.0, adaptive_s = 0.0, nn_s = 0.0;
};

/// One pass of the four steps; with a tracer, encode is split into its
/// transform and entropy halves and the NN runs through TimedScheduler.
PassResult run_pass(const AppsInputs& in, const Options& opts, Tracer* tr) {
  PassResult r;
  Clock::time_point t0 = Clock::now();
  if (tr == nullptr) {
    r.stream = jpeg::encode(in.scene, kQuality, in.ca8_plan, opts.threads, &r.encode_stats);
  } else {
    Tracer::Scope root(tr, "apps.encode");
    const jpeg::Quantizer quant(jpeg::Component::kLuma, kQuality);
    std::vector<jpeg::Block> blocks;
    {
      Tracer::Scope span(tr, "jpeg.transform");
      blocks = jpeg::encode_blocks(in.scene, quant, in.ca8_plan, opts.threads, &r.encode_stats);
    }
    Tracer::Scope span(tr, "jpeg.entropy_encode");
    r.stream = jpeg::entropy_encode(blocks, in.scene.width(), in.scene.height(), quant.steps());
  }
  r.encode_s = seconds_since(t0);

  t0 = Clock::now();
  {
    Tracer::Scope root(tr, "apps.decode");
    Tracer::Scope span(tr, "jpeg.decode");
    r.decoded = jpeg::decode(r.stream, in.ca8_plan, opts.threads);
  }
  r.decode_s = seconds_since(t0);

  t0 = Clock::now();
  {
    Tracer::Scope root(tr, "apps.adaptive");
    Tracer::Scope span(tr, "jpeg.encode_adaptive");
    r.adaptive = jpeg::encode_adaptive(in.scene, kQuality, in.jpeg_ladder,
                                       jpeg_adaptive_options(opts.seed));
  }
  r.adaptive_s = seconds_since(t0);

  t0 = Clock::now();
  {
    Tracer::Scope root(tr, "apps.nn");
    adapt::Controller controller(in.nn_ladder, nn_controller_config(opts.seed));
    std::optional<TimedScheduler> timed;
    if (tr != nullptr) timed.emplace(controller, tr, r.nn_timing);
    nn::TileScheduler& sched = timed ? static_cast<nn::TileScheduler&>(*timed)
                                     : static_cast<nn::TileScheduler&>(controller);
    for (const nn::QTensor& batch : in.batches) {
      const std::vector<int> p = in.net.classify_planned(batch, sched, opts.threads);
      r.predictions.insert(r.predictions.end(), p.begin(), p.end());
    }
    r.nn_report = controller.report(in.labels.size());
  }
  r.nn_s = seconds_since(t0);
  return r;
}

std::string pass_digest(const PassResult& r, const AppsInputs& in) {
  std::string text = "jpeg " + digest_hex(std::string(r.stream.begin(), r.stream.end())) + " " +
                     std::to_string(r.stream.size()) + "\n";
  text += "decoded " +
          digest_hex(std::string(r.decoded.image.pixels().begin(), r.decoded.image.pixels().end())) +
          " psnr " + fmt(apps::psnr(in.scene, r.decoded.image)) + "\n";
  text += "adaptive " +
          digest_hex(std::string(r.adaptive.bytes.begin(), r.adaptive.bytes.end())) + " " +
          std::to_string(r.adaptive.bytes.size()) + " swaps " +
          std::to_string(r.adaptive.report.swaps.size()) + "\n";
  text += "nn";
  for (const int p : r.predictions) text += " " + std::to_string(p);
  text += "\nnn_swaps " + std::to_string(r.nn_report.swaps.size()) + " edp " +
          fmt(r.nn_report.edp_per_inference_au) + "\n";
  return text;
}

void check_pass(const PassResult& r, const AppsInputs& in, Outcome& out) {
  out.check(r.decoded.width == in.scene.width() && r.decoded.height == in.scene.height(),
            "ca8 stream decodes to the scene's size");
  out.check(apps::psnr(in.scene, r.decoded.image) > 25.0, "ca8 round trip stays above 25 dB");
  const jpeg::Decoded adaptive = jpeg::decode(r.adaptive.bytes, jpeg::CodecPlan{});
  out.check(adaptive.width == in.scene.width() && adaptive.height == in.scene.height(),
            "adaptive stream decodes cleanly");
  std::size_t right = 0;
  for (std::size_t i = 0; i < r.predictions.size(); ++i) right += r.predictions[i] == in.labels[i];
  out.check(r.predictions.size() == in.labels.size(), "every digit is classified");
  out.check(static_cast<double>(right) >= 0.5 * static_cast<double>(in.labels.size()),
            "adaptive classification keeps top-1 above 50%");
}

}  // namespace

Outcome run_apps(const Options& opts, Tracer* tracer) {
  Outcome out;
  const unsigned side = opts.tiny ? 128 : 1024;
  const std::size_t samples = opts.tiny ? 64 : 512;
  AppsInputs in;
  double nn_setup_s = 0.0;
  const auto prepare = [&] {
    const Clock::time_point t0 = Clock::now();
    for (const char* name : {"exact", "ca8", "cc8", "cas8"}) (void)nn::shared_mac_backend(name);
    if (nn_setup_s == 0.0) nn_setup_s = seconds_since(t0);  // the first, cold touch
    in.scene = apps::make_test_scene(side, side, opts.seed);
    in.ca8_plan = jpeg::CodecPlan::uniform(nn::make_mac_backend("ca8"));
    in.jpeg_ladder = adapt::make_ladder({"cc8", "cas8", "exact"});
    in.nn_ladder = adapt::make_ladder({"cc8", "ca8", "exact"});
    in.net = nn::make_digits_network();
    in.net.calibrate(nn::make_digits(256, opts.seed + 1).images, 8);
    in.net.set_backend(nn::shared_mac_backend("exact"));
    const nn::Dataset test = nn::make_digits(samples, opts.seed);
    in.labels = test.labels;
    in.batches.clear();
    const std::size_t per_sample = test.images.data.size() / samples;
    for (std::size_t start = 0; start < samples; start += kNnBatch) {
      const std::size_t count = std::min(kNnBatch, samples - start);
      nn::Tensor chunk;
      chunk.shape = test.images.shape;
      chunk.shape[0] = static_cast<unsigned>(count);
      chunk.data.assign(test.images.data.begin() + static_cast<std::ptrdiff_t>(start * per_sample),
                        test.images.data.begin() +
                            static_cast<std::ptrdiff_t>((start + count) * per_sample));
      in.batches.push_back(in.net.quantize_input(chunk));
    }
  };
  std::vector<double> setups;
  time_setups(prepare, kSetupLeadRepeats, kSetupLeadSeconds, setups);
  const double mpx = static_cast<double>(side) * side / 1e6;

  if (tracer == nullptr) {
    std::string reference;
    std::vector<double> enc, dec, ada, inf, pass;
    const std::vector<double> cycle_s = run_cycles(opts.seconds, 3, [&](unsigned) {
      time_setups(prepare, 1, kSetupCycleSeconds, setups);
      const PassResult r = run_pass(in, opts, nullptr);
      enc.push_back(mpx / r.encode_s);
      dec.push_back(mpx / r.decode_s);
      ada.push_back(mpx / r.adaptive_s);
      inf.push_back(static_cast<double>(samples) / r.nn_s);
      pass.push_back(1.0 / (r.encode_s + r.decode_s + r.adaptive_s + r.nn_s));
      check_pass(r, in, out);
      const std::string text = pass_digest(r, in);
      if (reference.empty()) reference = text;
      out.check(text == reference, "every pass produces identical outputs");
      out.attempted += 4;
    });
    out.digest_text = reference;
    add_end_to_end(out, median(setups), median(pass));
    out.detail("jpeg_encode_mpx_s", median(enc), "Mpx/s");
    out.detail("jpeg_decode_mpx_s", median(dec), "Mpx/s");
    out.detail("jpeg_adaptive_mpx_s", median(ada), "Mpx/s");
    out.detail("nn_infer_per_s", median(inf), "inferences/s");
    out.detail("cycles", static_cast<double>(cycle_s.size()), "count");
    return out;
  }

  // Traced run: an untraced pass (overhead base and reference outputs),
  // then the traced pass and the single-threaded IDCT replay.
  Clock::time_point t0 = Clock::now();
  const PassResult plain = run_pass(in, opts, nullptr);
  const double untraced_s = seconds_since(t0);
  t0 = Clock::now();
  const PassResult traced = run_pass(in, opts, tracer);
  const double traced_s = seconds_since(t0);
  const NnTiming& nt = traced.nn_timing;
  check_pass(traced, in, out);
  out.check(pass_digest(traced, in) == pass_digest(plain, in),
            "traced pass reproduces the untraced outputs");
  out.digest_text = pass_digest(traced, in);
  out.attempted += 4;

  {
    Tracer::Scope root(tracer, "replay.idct");
    const jpeg::Quantizer quant(traced.decoded.steps);
    std::vector<jpeg::Block> freq = traced.decoded.blocks;
    for (jpeg::Block& b : freq) {
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = quant.dequantize(b[i], i, in.ca8_plan.dequant);
    }
    Tracer::Scope span(tracer, "jpeg.idct");
    std::uint64_t sink = 0;
    for (const jpeg::Block& b : freq) sink += static_cast<std::uint64_t>(jpeg::idct(b, in.ca8_plan.idct)[0]);
    out.detail("replay.idct_blocks", static_cast<double>(freq.size()), "count");
    (void)sink;
  }

  const auto ms = [&](const char* name) { return tracer->total_s(name) * 1e3; };
  out.metric("jpeg.transform_ms", ms("jpeg.transform"), "ms");
  out.metric("jpeg.entropy_encode_ms", ms("jpeg.entropy_encode"), "ms");
  out.metric("jpeg.decode_ms", ms("jpeg.decode"), "ms");
  out.metric("jpeg.idct_ms", ms("jpeg.idct"), "ms");
  out.metric("jpeg.lookups",
             static_cast<double>(traced.encode_stats.lookups() + traced.decoded.stats.lookups()),
             "count");
  out.metric("jpeg.bytes", static_cast<double>(traced.stream.size()), "bytes");
  std::uint64_t jr = 0;
  for (const adapt::LayerAdaptStats& l : traced.adaptive.report.layers) jr += l.recomputes;
  out.metric("jpeg.adaptive_recomputes", static_cast<double>(jr), "count");
  out.metric("jpeg.adaptive_swaps", static_cast<double>(traced.adaptive.report.swaps.size()),
             "count");
  out.metric("nn.gemm_ms", nt.gemm_s * 1e3, "ms");
  out.metric("nn.gemm_gmacs", nt.gemm_s > 0.0 ? nt.macs / nt.gemm_s / 1e9 : 0.0,
             "GMAC/s");
  out.metric("nn.setup_ms", nn_setup_s * 1e3, "ms");
  out.metric("adapt.decide_us",
             nt.decides ? nt.decide_s / static_cast<double>(nt.decides) * 1e6 : 0.0,
             "us");
  out.metric("adapt.observe_ms", nt.observe_s * 1e3, "ms");
  std::uint64_t recomputes = 0;
  for (const adapt::LayerAdaptStats& l : traced.nn_report.layers) recomputes += l.recomputes;
  out.metric("adapt.recomputes", static_cast<double>(recomputes), "count");
  out.metric("adapt.swaps", static_cast<double>(traced.nn_report.swaps.size()), "count");
  out.metric("adapt.monitor_macs", static_cast<double>(traced.nn_report.monitor_macs), "count");

  double roots = 0.0;
  double covered = 0.0;
  for (const char* root : {"apps.encode", "apps.decode", "apps.adaptive", "apps.nn"}) {
    roots += tracer->total_s(root);
    covered += tracer->coverage(root) * tracer->total_s(root);
  }
  add_trace_overhead(out, roots > 0.0 ? covered / roots : 0.0, traced_s, untraced_s);
  out.detail("setup_s", median(setups), "s");
  out.detail("nn.coverage", tracer->coverage("apps.nn"), "ratio");
  return out;
}

}  // namespace perfbench
