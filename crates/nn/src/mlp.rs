//! The multi-layer perceptron of Figure 9 / Appendix A.2.
//!
//! Input block = [scaled continuous features | hour one-hot | vendor
//! one-hot | region embedding | fiber-ID embedding] → 64-neuron ReLU
//! hidden layer → 2-neuron decoder → softmax over {normal, failure}.
//! Trained with Adam (lr 1e-3), L2 2e-4, NLL loss, and minority-class
//! oversampling to fix the 4:6 imbalance. One shared model covers all
//! fibers ("one-model-one-fiber … is impractical with low data
//! samples"); the fiber-ID embedding is how per-fiber behaviour enters.

use crate::adam::Adam;
use crate::encoder::{Encoded, FeatureEncoder, FeatureMask};
use crate::linalg::{softmax, Matrix};
use crate::Predictor;
use prete_obs::Recorder;
use prete_optical::DegradationEvent;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Embedding width for the region variable.
const REGION_EMB: usize = 2;
/// Embedding width for the fiber-ID variable.
const FIBER_EMB: usize = 4;
/// One-hot width for the hour of day.
const HOURS: usize = 24;

/// Training hyper-parameters (defaults = Appendix A.2).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the (oversampled) training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f64,
    /// L2 regularization weight (paper: 2e-4).
    pub l2: f64,
    /// Hidden width (paper: 64).
    pub hidden: usize,
    /// RNG seed for init / shuffling / oversampling.
    pub seed: u64,
    /// Feature mask (Table 8 ablations).
    pub mask: FeatureMask,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch: 32,
            lr: 1e-3,
            l2: 2e-4,
            hidden: 64,
            seed: 0,
            mask: FeatureMask::ALL,
        }
    }
}

/// The trained network.
#[derive(Debug, Clone)]
pub struct Mlp {
    encoder: FeatureEncoder,
    /// Input-major: row `c` holds input `c`'s weight into every hidden
    /// unit, so one input is one contiguous AXPY.
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    region_emb: Matrix,
    fiber_emb: Matrix,
}

/// First column of the vendor one-hot.
const VENDOR0: usize = 4 + HOURS;
/// Most nonzero inputs one event has: four continuous features, one
/// hour and one vendor bit, and the two embeddings.
const MAX_NONZEROS: usize = 4 + 1 + 1 + REGION_EMB + FIBER_EMB;

/// The nonzero entries of one input vector, `(column, value)` in
/// ascending column order.
struct Inputs {
    len: usize,
    at: [(usize, f64); MAX_NONZEROS],
}

impl Inputs {
    fn push(&mut self, col: usize, value: f64) {
        if value != 0.0 {
            self.at[self.len] = (col, value);
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[(usize, f64)] {
        &self.at[..self.len]
    }
}

/// One gradient buffer per parameter tensor, in [`Mlp::params_mut`]
/// order.
type Grads = [Vec<f64>; 6];

impl Mlp {
    /// Trains a network on the given training events.
    ///
    /// # Panics
    /// Panics if `train` is empty or contains a single class only.
    pub fn train(train: &[&DegradationEvent], cfg: TrainConfig) -> Mlp {
        Self::train_recorded(train, cfg, &Recorder::disabled())
    }

    /// [`Mlp::train`] under an `"nn.train"` span, publishing the
    /// dataset shape as gauges and an `nn-trained` completion event.
    ///
    /// # Panics
    /// Panics if `train` is empty or contains a single class only.
    pub fn train_recorded(train: &[&DegradationEvent], cfg: TrainConfig, obs: &Recorder) -> Mlp {
        let _span = obs.span("nn.train");
        assert!(!train.is_empty(), "empty training set");
        let pos = train.iter().filter(|e| e.led_to_cut).count();
        assert!(
            pos > 0 && pos < train.len(),
            "training set must contain both classes (positives: {pos}/{})",
            train.len()
        );
        let encoder = FeatureEncoder::fit_recorded(train, cfg.mask, obs);
        obs.gauge("nn.train_samples", train.len() as f64);
        obs.gauge("nn.positives", pos as f64);
        let d_in = VENDOR0 + encoder.n_vendors + REGION_EMB + FIBER_EMB;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Mlp {
            w1: xavier(cfg.hidden, d_in, &mut rng).transpose(),
            b1: vec![0.0; cfg.hidden],
            w2: xavier(2, cfg.hidden, &mut rng),
            b2: vec![0.0; 2],
            region_emb: xavier(encoder.n_regions, REGION_EMB, &mut rng),
            fiber_emb: xavier(encoder.n_fibers, FIBER_EMB, &mut rng),
            encoder,
        };

        // Oversample the minority class to equilibrium (Appendix A.2).
        let mut indices: Vec<usize> = (0..train.len()).collect();
        let (minority, majority): (Vec<usize>, Vec<usize>) = {
            let pos_idx: Vec<usize> = (0..train.len()).filter(|&i| train[i].led_to_cut).collect();
            let neg_idx: Vec<usize> = (0..train.len()).filter(|&i| !train[i].led_to_cut).collect();
            if pos_idx.len() < neg_idx.len() {
                (pos_idx, neg_idx)
            } else {
                (neg_idx, pos_idx)
            }
        };
        while indices.len() < 2 * majority.len() {
            indices.push(*minority.choose(&mut rng).expect("non-empty minority"));
        }

        let mut opts = model
            .params_mut()
            .map(|p| Adam::new(p.len(), cfg.lr, cfg.l2));
        let mut grads: Grads = model.params_mut().map(|p| vec![0.0; p.len()]);
        let (mut h, mut dz1) = (vec![0.0; cfg.hidden], vec![0.0; cfg.hidden]);
        let encoded: Vec<(Encoded, bool)> = train
            .iter()
            .map(|e| (model.encoder.encode(e), e.led_to_cut))
            .collect();

        for _epoch in 0..cfg.epochs {
            indices.shuffle(&mut rng);
            for chunk in indices.chunks(cfg.batch) {
                for g in &mut grads {
                    g.fill(0.0);
                }
                let scale = 1.0 / chunk.len() as f64;
                for &i in chunk {
                    let (enc, label) = &encoded[i];
                    model.accumulate(enc, *label, scale, &mut h, &mut dz1, &mut grads);
                }
                for ((opt, params), g) in opts.iter_mut().zip(model.params_mut()).zip(&grads) {
                    opt.step(params, g);
                }
            }
        }
        obs.event_with("nn-trained", || {
            format!(
                "samples={} oversampled_to={} epochs={} d_in={d_in}",
                train.len(),
                indices.len(),
                cfg.epochs
            )
        });
        model
    }

    /// The parameter tensors, flat: W1, b1, W2, b2, region and fiber
    /// embeddings.
    fn params_mut(&mut self) -> [&mut [f64]; 6] {
        [
            self.w1.data_mut(),
            &mut self.b1,
            self.w2.data_mut(),
            &mut self.b2,
            self.region_emb.data_mut(),
            self.fiber_emb.data_mut(),
        ]
    }

    /// First columns of the region and fiber-ID embeddings.
    fn embedding_columns(&self) -> (usize, usize) {
        let r0 = VENDOR0 + self.encoder.n_vendors;
        (r0, r0 + REGION_EMB)
    }

    /// The nonzero inputs of an encoded event: continuous features, the
    /// hour and vendor bits and the embedding entries its mask keeps.
    fn inputs(&self, e: &Encoded) -> Inputs {
        let mask = self.encoder.mask;
        let (r0, f0) = self.embedding_columns();
        let mut x = Inputs {
            len: 0,
            at: [(0, 0.0); MAX_NONZEROS],
        };
        for (c, &v) in e.cont.iter().enumerate() {
            x.push(c, v);
        }
        if mask.time {
            x.push(4 + e.hour, 1.0);
        }
        if mask.vendor {
            x.push(VENDOR0 + e.vendor, 1.0);
        }
        if mask.region {
            for (k, &v) in self.region_emb.row(e.region).iter().enumerate() {
                x.push(r0 + k, v);
            }
        }
        if mask.fiber_id {
            for (k, &v) in self.fiber_emb.row(e.fiber).iter().enumerate() {
                x.push(f0 + k, v);
            }
        }
        x
    }

    /// Forward pass: hidden activations into `h`, class probabilities
    /// out.
    ///
    /// Every hidden unit sums its inputs in ascending column order from
    /// `-0.0`, the neutral element `Iterator::sum` folds from, so it
    /// makes the dense dot product's additions in the dense order minus
    /// the `w · 0` terms. Those change no nonzero partial sum, and
    /// adding `b1` (never `-0.0`) makes a zero one `+0.0` either way:
    /// every activation and probability is bit-identical to the dense
    /// product's.
    fn forward(&self, x: &[(usize, f64)], h: &mut [f64]) -> [f64; 2] {
        h.fill(-0.0);
        for &(c, v) in x {
            for (z, &w) in h.iter_mut().zip(self.w1.row(c)) {
                *z += w * v;
            }
        }
        for (z, &b) in h.iter_mut().zip(&self.b1) {
            *z = (*z + b).max(0.0);
        }
        let z2 = [0, 1].map(|k| {
            self.w2
                .row(k)
                .iter()
                .zip(&*h)
                .map(|(&w, &a)| w * a)
                .sum::<f64>()
                + self.b2[k]
        });
        softmax(z2)
    }

    /// Accumulates the NLL gradients of one sample into `grads`, with
    /// `h` and `dz1` as scratch.
    ///
    /// A unit the ReLU gates off has `dz1 = 0`; its zero terms leave
    /// gradients that start at `+0.0` unchanged bit for bit, so the
    /// AXPYs over the hidden units need no branch.
    fn accumulate(
        &self,
        e: &Encoded,
        label: bool,
        scale: f64,
        h: &mut [f64],
        dz1: &mut [f64],
        grads: &mut Grads,
    ) {
        let x = self.inputs(e);
        let mut dz2 = self.forward(x.as_slice(), h);
        let [g_w1, g_b1, g_w2, g_b2, g_re, g_fe] = grads;
        // dL/dz2 = p - onehot(y)
        dz2[usize::from(label)] -= 1.0;
        for d in dz2.iter_mut() {
            *d *= scale;
        }
        let hidden = h.len();
        for (k, &d) in dz2.iter().enumerate() {
            g_b2[k] += d;
            for (g, &a) in g_w2[k * hidden..(k + 1) * hidden].iter_mut().zip(&*h) {
                *g += d * a;
            }
        }
        // dL/dh = W2ᵀ dz2 (from +0.0, skipping a zero dz2 entry), gated
        // by the ReLU: h > 0 exactly where its pre-activation was.
        for (k, dz) in dz1.iter_mut().enumerate() {
            *dz = 0.0;
            if h[k] > 0.0 {
                for (r, &d) in dz2.iter().enumerate() {
                    if d != 0.0 {
                        *dz += self.w2.get(r, k) * d;
                    }
                }
            }
        }
        for (g, &d) in g_b1.iter_mut().zip(&*dz1) {
            *g += d;
        }
        for &(c, v) in x.as_slice() {
            for (g, &d) in g_w1[c * hidden..(c + 1) * hidden].iter_mut().zip(&*dz1) {
                *g += d * v;
            }
        }
        // dL/dx = W1ᵀ dz1, needed only at the embedding columns.
        let dx = |c: usize| {
            self.w1
                .row(c)
                .iter()
                .zip(&*dz1)
                .fold(0.0, |s, (&w, &d)| s + w * d)
        };
        let (r0, f0) = self.embedding_columns();
        if self.encoder.mask.region {
            for k in 0..REGION_EMB {
                g_re[e.region * REGION_EMB + k] += dx(r0 + k);
            }
        }
        if self.encoder.mask.fiber_id {
            for k in 0..FIBER_EMB {
                g_fe[e.fiber * FIBER_EMB + k] += dx(f0 + k);
            }
        }
    }

    /// The fitted encoder (exposed for inspection/tests).
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }
}

impl Predictor for Mlp {
    fn predict_proba(&self, event: &DegradationEvent) -> f64 {
        let x = self.inputs(&self.encoder.encode(event));
        self.forward(x.as_slice(), &mut vec![0.0; self.b1.len()])[1]
    }
}

fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let s = (6.0 / (rows + cols) as f64).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-s..s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_optical::{DegradationEvent, DegradationFeatures};
    use prete_topology::FiberId;

    /// Synthetic linearly-separable-ish task: high degree → failure.
    fn toy_events(n: usize, seed: u64) -> Vec<DegradationEvent> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let degree: f64 = rng.gen_range(3.0..10.0);
                DegradationEvent {
                    fiber: FiberId(i % 5),
                    start_s: i as u64 * 600,
                    duration_s: 10,
                    features: DegradationFeatures {
                        hour: (i % 24) as u8,
                        degree_db: degree,
                        gradient_db: rng.gen_range(0.0..1.0),
                        fluctuation: rng.gen_range(0..40),
                        region: i % 3,
                        fiber_id: i % 5,
                        length_km: 500.0,
                        vendor: i % 2,
                    },
                    led_to_cut: degree > 6.5,
                    cut_delay_s: None,
                }
            })
            .collect()
    }

    #[test]
    fn learns_separable_rule() {
        let events = toy_events(400, 1);
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let cfg = TrainConfig {
            epochs: 60,
            seed: 2,
            ..Default::default()
        };
        let model = Mlp::train(&refs[..300], cfg);
        let correct = refs[300..]
            .iter()
            .filter(|e| model.predict(e) == e.led_to_cut)
            .count();
        // ~0.88 in practice: the degree rule is learned exactly (train
        // accuracy hits 100 %) but the noisy one-hot features cost a
        // few points of generalization on 300 samples.
        let acc = correct as f64 / 100.0;
        assert!(acc > 0.8, "accuracy {acc}");
        // The learned probability must saturate on both sides of the
        // 6.5 dB boundary.
        let mut lo = events[0].clone();
        lo.features.degree_db = 3.5;
        let mut hi = events[0].clone();
        hi.features.degree_db = 9.5;
        assert!(model.predict_proba(&lo) < 0.2);
        assert!(model.predict_proba(&hi) > 0.8);
    }

    #[test]
    fn proba_in_unit_interval() {
        let events = toy_events(100, 3);
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let model = Mlp::train(
            &refs,
            TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        for e in &events {
            let p = model.predict_proba(e);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let events = toy_events(120, 4);
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let cfg = TrainConfig {
            epochs: 3,
            seed: 11,
            ..Default::default()
        };
        let a = Mlp::train(&refs, cfg);
        let b = Mlp::train(&refs, cfg);
        for e in &events[..10] {
            assert_eq!(a.predict_proba(e), b.predict_proba(e));
        }
    }

    #[test]
    fn masked_feature_is_ignored() {
        // With degree masked out, two events differing only in degree
        // must get identical predictions.
        let events = toy_events(150, 5);
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let cfg = TrainConfig {
            epochs: 3,
            mask: FeatureMask::without("degree"),
            ..Default::default()
        };
        let model = Mlp::train(&refs, cfg);
        let mut a = events[0].clone();
        let mut b = events[0].clone();
        a.features.degree_db = 3.0;
        b.features.degree_db = 10.0;
        assert_eq!(model.predict_proba(&a), model.predict_proba(&b));
    }

    /// FNV-1a-64 over the bits of every predicted probability.
    fn proba_digest(model: &Mlp, events: &[DegradationEvent]) -> u64 {
        events
            .iter()
            .flat_map(|e| model.predict_proba(e).to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn mlp_training_is_pinned() {
        // The react-twan set-up's training, scored on every event
        // (train and held out) of its simulated year.
        let net = prete_topology::topologies::twan();
        let failures = prete_optical::FailureModel::new(&net, 42);
        let year = prete_optical::Dataset::generate(
            &net,
            &failures,
            prete_optical::DatasetConfig::one_year(7),
        );
        let (train, _held_out) = year.train_test_split(0.8);
        let model = Mlp::train(
            &train,
            TrainConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let mut digests = vec![("twan", proba_digest(&model, &year.events))];
        // Every Table 8 mask on the toy task.
        let events = toy_events(160, 7);
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let masks = [
            "time",
            "degree",
            "gradient",
            "fluctuation",
            "region",
            "fiber_id",
            "vendor",
        ]
        .map(|f| (f, FeatureMask::without(f)));
        for (name, mask) in std::iter::once(("all", FeatureMask::ALL)).chain(masks) {
            let cfg = TrainConfig {
                epochs: 4,
                seed: 3,
                mask,
                ..Default::default()
            };
            digests.push((name, proba_digest(&Mlp::train(&refs, cfg), &events)));
        }
        // Captured on the dense layout this kernel replaced.
        let expected = [
            ("twan", 0x2955d9e025904afc),
            ("all", 0x4392a6aeca39e8ad),
            ("time", 0x523f4b757c7a52f9),
            ("degree", 0xd2d22f1c30cfad8d),
            ("gradient", 0x0f8738e88f88147c),
            ("fluctuation", 0x962a41f0247c73a0),
            ("region", 0x8e40656cbb442736),
            ("fiber_id", 0x17747eef738e3960),
            ("vendor", 0x9cdce6e282624bd6),
        ];
        assert_eq!(digests, expected);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_training_rejected() {
        let mut events = toy_events(50, 6);
        for e in &mut events {
            e.led_to_cut = false;
        }
        let refs: Vec<&DegradationEvent> = events.iter().collect();
        let _ = Mlp::train(&refs, TrainConfig::default());
    }
}
