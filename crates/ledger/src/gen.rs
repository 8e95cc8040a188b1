//! Everything the program under test sees is generated here from `--seed`.
//!
//! The seed derives the request seeds, the app order and the client's
//! think times; the same seed gives the same inputs, byte for byte. The
//! offline corpus and the feedback pool are fixtures that do *not* follow
//! the seed: a different corpus is a different model, ACG region and index
//! — a different amount of work per request (candidates failing preflight
//! are never scored) — and a different pool is a different sequence of
//! fine-tuned models, whose top-1 quality swings by tens of percent. Runs
//! on different seeds would stop being comparable with each other, and
//! `etr_mean` could not be held to a tight bound.

use lite_core::experiment::splitmix;
use lite_serve::{ClusterRef, Request};
use lite_sparksim::cluster::ClusterSpec;
use lite_workloads::apps::AppId;
use lite_workloads::data::{DataSpec, SizeTier};

/// Seed of the offline corpus, the offline model and the ACG forests:
/// fixed, see the module docs.
pub const CORPUS_SEED: u64 = 20221;
/// Seed of the feedback pool's requests and simulations: fixed likewise.
pub const POOL_SEED: u64 = 20222;

/// Independent streams derived from the one `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Base of the request-seed stream.
    pub requests: u64,
    /// App-order shuffle.
    pub order: u64,
    /// The wire client's think times.
    pub think: u64,
}

impl Seeds {
    /// Split `--seed` into its streams.
    pub fn derive(seed: u64) -> Seeds {
        let stream = |salt: u64| splitmix(seed ^ splitmix(salt));
        Seeds { requests: stream(2), order: stream(3), think: stream(5) }
    }
}

/// Seeded Fisher–Yates shuffle (the app order of a run).
pub fn shuffled(apps: &[AppId], seed: u64) -> Vec<AppId> {
    let mut out = apps.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = splitmix(state);
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

/// One `recommend` identity: two requests with the same identity must get
/// the same answer within a model version.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// Target application.
    pub app: AppId,
    /// Target data scale.
    pub data: DataSpec,
    /// Candidates requested.
    pub k: usize,
    /// Candidate-sampling seed.
    pub seed: u64,
}

impl Identity {
    /// The wire form of this identity against `cluster`.
    pub fn to_request(&self, cluster: &ClusterSpec) -> Request {
        Request::Recommend {
            app: self.app,
            data: self.data,
            cluster: ClusterRef::from_spec(cluster),
            k: self.k,
            seed: self.seed,
            trace: None,
        }
    }
}

/// The request stream of one run: apps in seeded order at the Test tier,
/// request seeds that never repeat.
#[derive(Debug, Clone)]
pub struct RequestGen {
    apps: Vec<AppId>,
    k: usize,
    base: u64,
    issued: u64,
}

impl RequestGen {
    /// A stream over `apps` (served round-robin in seeded order).
    pub fn new(apps: &[AppId], k: usize, seeds: &Seeds) -> RequestGen {
        RequestGen { apps: shuffled(apps, seeds.order), k, base: seeds.requests, issued: 0 }
    }

    /// The apps in the order this run serves them.
    pub fn apps(&self) -> &[AppId] {
        &self.apps
    }

    /// The next identity; its seed has never been issued before.
    pub fn fresh(&mut self) -> Identity {
        let i = self.issued;
        self.issued += 1;
        let app = self.apps[(i % self.apps.len() as u64) as usize];
        // base + counter: distinct for every request of a run, so neither
        // the response cache nor the prediction cache can answer it.
        Identity {
            app,
            data: app.dataset(SizeTier::Test),
            k: self.k,
            seed: self.base.wrapping_add(i),
        }
    }

    /// `n` fixed hot identities (a separate seed range from `fresh`).
    pub fn hot(&self, n: usize) -> Vec<Identity> {
        (0..n)
            .map(|i| {
                let app = self.apps[i % self.apps.len()];
                Identity {
                    app,
                    data: app.dataset(SizeTier::Test),
                    k: self.k,
                    seed: splitmix(self.base ^ 0x686f74).wrapping_add(i as u64),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lite_serve::proto::encode_request;

    fn stream_bytes(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let cluster = ClusterSpec::cluster_c();
        let mut gen = RequestGen::new(&AppId::all(), 5, &Seeds::derive(seed));
        let mut out: Vec<Vec<u8>> =
            (0..n).map(|i| encode_request(&gen.fresh().to_request(&cluster), i as u32)).collect();
        out.extend(gen.hot(8).iter().map(|id| encode_request(&id.to_request(&cluster), 0)));
        out
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        assert_eq!(stream_bytes(20221, 64), stream_bytes(20221, 64));
    }

    #[test]
    fn different_seed_gives_different_requests() {
        let (a, b) = (stream_bytes(20221, 64), stream_bytes(20222, 64));
        assert_ne!(a, b);
        // Not merely reordered: the request seeds themselves differ.
        assert!(a.iter().all(|frame| !b.contains(frame)));
    }

    #[test]
    fn fresh_seeds_never_repeat_and_cover_every_app() {
        let mut gen = RequestGen::new(&AppId::all(), 5, &Seeds::derive(9));
        let ids: Vec<Identity> = (0..450).map(|_| gen.fresh()).collect();
        let mut seeds: Vec<u64> = ids.iter().map(|i| i.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 450);
        for app in AppId::all() {
            assert_eq!(ids.iter().filter(|i| i.app == app).count(), 30);
        }
        let hot = gen.hot(64);
        assert!(hot.iter().all(|h| !seeds.contains(&h.seed)));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let all = AppId::all();
        let a = shuffled(&all, 3);
        assert_eq!(a, shuffled(&all, 3));
        assert_ne!(a, shuffled(&all, 4));
        let mut sorted = a.clone();
        sorted.sort_by_key(|x| x.index());
        assert_eq!(sorted, all.to_vec());
    }
}
