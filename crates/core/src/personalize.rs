//! High-level personalization API — the "intelligent personal assistant"
//! loop of the paper's introduction, as a library surface.
//!
//! A [`Personalizer`] wraps a pretrained backbone with Parallel Adapters
//! and accumulates user interactions as labeled text. Training uses the
//! PAC recipe end to end: the first pass over each example fills the
//! activation cache, later passes train the side network from the cache
//! alone; the personalization can be exported/imported as an adapter-only
//! checkpoint (megabytes, not the backbone).

use pac_data::Tokenizer;
use pac_model::EncDecModel;
use pac_nn::{cross_entropy, Adam, LrSchedule, Module, Optimizer};
use pac_peft::{ActivationCache, CacheStats, CheckpointError, Technique, TrainCheckpoint, Tuner};
use pac_tensor::rng::seeded;
use pac_tensor::{reduce, Result};

/// One observed interaction.
#[derive(Debug, Clone)]
struct Interaction {
    id: u64,
    tokens: Vec<usize>,
    label: usize,
}

/// Configuration for a [`Personalizer`].
#[derive(Debug, Clone, Copy)]
pub struct PersonalizerConfig {
    /// Number of label classes.
    pub n_classes: usize,
    /// Parallel-Adapters reduction factor.
    pub reduction: usize,
    /// Token sequence length for every interaction.
    pub seq_len: usize,
    /// Base learning rate (warmup + constant schedule).
    pub lr: f32,
    /// RNG seed for the side-network init.
    pub seed: u64,
}

impl Default for PersonalizerConfig {
    fn default() -> Self {
        PersonalizerConfig {
            n_classes: 2,
            reduction: 4,
            seq_len: 12,
            lr: 1e-2,
            seed: 42,
        }
    }
}

/// Accumulates user interactions and fine-tunes a personal LLM in place.
#[derive(Debug, Clone)]
pub struct Personalizer {
    tuner: Tuner,
    tokenizer: Tokenizer,
    cache: ActivationCache,
    config: PersonalizerConfig,
    interactions: Vec<Interaction>,
    opt: Adam,
    schedule: LrSchedule,
    step: usize,
}

impl Personalizer {
    /// Wraps a (pretrained) backbone for personalization.
    pub fn new(backbone: EncDecModel, config: PersonalizerConfig) -> Self {
        let tuner = Tuner::wrap(
            Technique::ParallelAdapters {
                reduction: config.reduction,
            },
            backbone,
            config.n_classes,
            &mut seeded(config.seed),
        );
        Personalizer {
            tuner,
            tokenizer: Tokenizer::new(),
            cache: ActivationCache::new(),
            config,
            interactions: Vec::new(),
            opt: Adam::new(config.lr),
            schedule: LrSchedule::Warmup { warmup: 10 },
            step: 0,
        }
    }

    /// Records a labeled interaction (e.g. a command plus user feedback).
    pub fn observe(&mut self, text: &str, label: usize) {
        debug_assert!(label < self.config.n_classes);
        let id = self.interactions.len() as u64;
        self.interactions.push(Interaction {
            id,
            tokens: self.tokenizer.encode(text, self.config.seq_len),
            label,
        });
    }

    /// Records a labeled sentence-pair interaction (question/answer style).
    pub fn observe_pair(&mut self, a: &str, b: &str, label: usize) {
        let id = self.interactions.len() as u64;
        self.interactions.push(Interaction {
            id,
            tokens: self.tokenizer.encode_pair(a, b, self.config.seq_len),
            label,
        });
    }

    /// Number of observed interactions.
    pub fn num_interactions(&self) -> usize {
        self.interactions.len()
    }

    /// Fine-tunes on everything observed so far. Epoch 1 over each example
    /// fills the activation cache; subsequent epochs never touch the
    /// backbone. Returns the mean loss per epoch.
    ///
    /// # Errors
    /// Propagates shape errors from the model.
    pub fn train(&mut self, epochs: usize, batch_size: usize) -> Result<Vec<f32>> {
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut sum = 0.0f32;
            let mut count = 0usize;
            for chunk in self.interactions.chunks(batch_size.max(1)) {
                let ids: Vec<u64> = chunk.iter().map(|i| i.id).collect();
                let targets: Vec<usize> = chunk.iter().map(|i| i.label).collect();
                self.tuner.zero_grads();
                let loss = if let Some(acts) = self.cache.get_batch(&ids) {
                    let (logits, ctx) = self.tuner.forward_cached(&acts)?;
                    let (loss, dl) = cross_entropy(&logits, &targets)?;
                    self.tuner.backward(&ctx, &dl)?;
                    loss
                } else {
                    let tokens: Vec<Vec<usize>> = chunk.iter().map(|i| i.tokens.clone()).collect();
                    let (logits, ctx) = self.tuner.forward(&tokens)?;
                    if let Some(acts) = self.tuner.cacheable_acts(&ctx) {
                        self.cache.insert_batch(&ids, acts);
                    }
                    let (loss, dl) = cross_entropy(&logits, &targets)?;
                    self.tuner.backward(&ctx, &dl)?;
                    loss
                };
                sum += loss;
                count += 1;
                self.tuner.clip_grad_norm(5.0);
                self.opt.lr = self.schedule.lr_at(self.config.lr, self.step);
                self.opt.step(&mut self.tuner);
                self.step += 1;
            }
            epoch_losses.push(sum / count.max(1) as f32);
        }
        Ok(epoch_losses)
    }

    /// Predicts the class of `text` with the current personalization.
    ///
    /// # Errors
    /// Propagates shape errors from the model.
    pub fn predict(&mut self, text: &str) -> Result<usize> {
        let tokens = vec![self.tokenizer.encode(text, self.config.seq_len)];
        let (logits, _) = self.tuner.forward(&tokens)?;
        Ok(reduce::argmax_rows(&logits)[0])
    }

    /// Class probabilities for `text`.
    ///
    /// # Errors
    /// Propagates shape errors from the model.
    pub fn predict_proba(&mut self, text: &str) -> Result<Vec<f32>> {
        let tokens = vec![self.tokenizer.encode(text, self.config.seq_len)];
        let (logits, _) = self.tuner.forward(&tokens)?;
        Ok(reduce::softmax_rows(&logits).data().to_vec())
    }

    /// Exports the personalization (trainable parameters only) as bytes.
    ///
    /// # Errors
    /// Propagates checkpoint serialization errors.
    pub fn export_adapter(&self) -> std::result::Result<Vec<u8>, CheckpointError> {
        TrainCheckpoint::capture(&self.tuner, 0, 0, 0).to_bytes()
    }

    /// Imports a previously exported personalization.
    ///
    /// # Errors
    /// Fails on malformed bytes or architecture mismatch; on error the
    /// personalization is unchanged.
    pub fn import_adapter(&mut self, bytes: &[u8]) -> std::result::Result<(), CheckpointError> {
        TrainCheckpoint::from_bytes(bytes)?.restore(&mut self.tuner)
    }

    /// Activation-cache statistics (entries, bytes, hits, misses).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Trainable / total parameter counts.
    pub fn param_counts(&self) -> (usize, usize) {
        (self.tuner.num_trainable(), self.tuner.total_params())
    }

    /// Clears the activation cache (the paper clears it after fine-tuning).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;

    fn personalizer(seed: u64) -> Personalizer {
        let cfg = ModelConfig::micro(2, 1, 32, 4);
        let backbone = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        Personalizer::new(
            backbone,
            PersonalizerConfig {
                seed,
                ..Default::default()
            },
        )
    }

    fn observe_home_data(p: &mut Personalizer, copies: usize) {
        let positive = [
            "play my favorite song",
            "that was perfect thank you",
            "great job with the lights",
            "i love this temperature",
        ];
        let negative = [
            "no stop that immediately",
            "that is wrong turn it off",
            "bad answer try again",
            "too loud turn it down",
        ];
        for _ in 0..copies {
            for t in positive {
                p.observe(t, 1);
            }
            for t in negative {
                p.observe(t, 0);
            }
        }
    }

    #[test]
    fn learns_user_feedback() {
        let mut p = personalizer(900);
        observe_home_data(&mut p, 3);
        assert_eq!(p.num_interactions(), 24);
        let losses = p.train(12, 8).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "losses {losses:?}"
        );
        // The personalizer memorizes its feedback history: ≥ 75% of the
        // seen phrases classify correctly (a random frozen backbone plus a
        // small side network won't be perfect on every hash-collided
        // phrase, and does not need to be).
        let eval = [
            ("play my favorite song", 1),
            ("that was perfect thank you", 1),
            ("great job with the lights", 1),
            ("i love this temperature", 1),
            ("no stop that immediately", 0),
            ("that is wrong turn it off", 0),
            ("bad answer try again", 0),
            ("too loud turn it down", 0),
        ];
        let correct = eval
            .iter()
            .filter(|(t, l)| p.predict(t).unwrap() == *l)
            .count();
        assert!(correct >= 6, "only {correct}/8 seen phrases correct");
        let proba = p.predict_proba("that was perfect thank you").unwrap();
        assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cache_fills_once_and_serves_later_epochs() {
        let mut p = personalizer(901);
        observe_home_data(&mut p, 1);
        p.train(3, 4).unwrap();
        let stats = p.cache_stats();
        assert_eq!(stats.entries, 8);
        // 8 samples/epoch × 2 cached epochs (hits are counted per sample).
        assert_eq!(stats.hits, 16);
        p.clear_cache();
        assert_eq!(p.cache_stats().entries, 0);
    }

    #[test]
    fn adapter_export_import_round_trip() {
        let mut trained = personalizer(902);
        observe_home_data(&mut trained, 2);
        trained.train(5, 8).unwrap();
        let bytes = trained.export_adapter().unwrap();
        let (trainable, total) = trained.param_counts();
        assert!(bytes.len() < total * 4 / 2, "adapter not compact");
        assert!(trainable < total);

        // A fresh personalizer over the *same* backbone inherits the
        // behavior by importing the adapter.
        let mut fresh = personalizer(902);
        fresh.import_adapter(&bytes).unwrap();
        assert_eq!(
            fresh.predict("play my favorite song").unwrap(),
            trained.predict("play my favorite song").unwrap()
        );
        let a = trained.predict_proba("too loud turn it down").unwrap();
        let b = fresh.predict_proba("too loud turn it down").unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn pair_observations_work() {
        let mut p = personalizer(903);
        p.observe_pair("is the door locked", "yes it is locked", 1);
        p.observe_pair("is the door locked", "the weather is nice", 0);
        let losses = p.train(2, 2).unwrap();
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite()));
    }
}
