//! Incremental (epoch-by-epoch) feed collection for `taster serve`.
//!
//! The batch pipeline ([`crate::pipeline`]) collects the whole event
//! log in one pass. The serve daemon instead ingests the *time-sorted*
//! event rows in slices, sealing an epoch snapshot after each slice so
//! purity/coverage/timing become sliding-window queries over running
//! columnar state.
//!
//! Two properties of the engine make this safe:
//!
//! * every collection decision is keyed by `(seed, stream, sorted
//!   event index)` — a pure function of the event, not of slice
//!   boundaries — and
//! * [`Feed::record`] is commutative and associative (min first-seen,
//!   max last-seen, summed volume),
//!
//! so applying each event exactly once, in any partitioning, yields a
//! final [`FeedSet`] bit-identical to the batch pass. The non-event
//! sources (benign pollution, Hyb's report sample and web-spam corpus,
//! the Hu report stream, blacklist listings) draw from *sequential*
//! RNG streams, so [`IngestState::new`] pre-decides all of them up
//! front — in the exact order the batch pass would — and replays the
//! resulting fault-free records through a time cursor as the watermark
//! advances. This is also what makes crash recovery exact: a restored
//! checkpoint re-presamples the sources (deterministic), repositions
//! the cursors at the watermark, and replays only the remaining rows.

use crate::collectors::blacklist::blacklist_source_records;
use crate::collectors::hu::hu_source_records;
use crate::config::FeedsConfig;
use crate::engine::{
    apply_source_record, compute_fast_ok, run_rows, shard_ranges, MemberSpec, RunCtx, ShardObs,
    SourceRecord,
};
use crate::error::PipelineError;
use crate::feed::{Feed, FeedSet};
use crate::id::FeedId;
use crate::pipeline::content_members;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Parallelism, SimTime};

/// One pre-decided source stream feeding one feed, replayed by time.
struct SourceStream {
    /// Index into the [`FeedId::ALL`]-ordered feed vector.
    feed: usize,
    /// Next unapplied record.
    cursor: usize,
    /// Records sorted (stably) by landing time.
    records: Vec<SourceRecord>,
}

/// Running collection state: ten building feeds plus the cursors that
/// track how much of the event log and the source streams has been
/// applied. All fields are owned — no borrow of the world — so the
/// daemon can hold the state and the world side by side.
pub struct IngestState {
    members: Vec<MemberSpec>,
    fast_ok: Vec<bool>,
    /// All ten feeds in [`FeedId::ALL`] order, in the building state.
    feeds: Vec<Feed>,
    /// Time-sorted event rows already ingested (`0..rows_done`).
    rows_done: usize,
    total_rows: usize,
    watermark: SimTime,
    sources: Vec<SourceStream>,
}

/// Maps a member slot (0..7) to its index in [`FeedId::ALL`] order.
fn member_feed_index(member: &MemberSpec) -> usize {
    member.feed_id().index()
}

impl IngestState {
    /// Validates the configuration and pre-decides every non-event
    /// source, leaving all ten feeds empty and the row cursor at zero.
    pub fn new(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
    ) -> Result<IngestState, PipelineError> {
        config.validate().map_err(PipelineError::InvalidConfig)?;
        plan.profile()
            .validate()
            .map_err(PipelineError::InvalidFaultProfile)?;
        let members: Vec<MemberSpec> = content_members(config).to_vec();
        let mut feeds: Vec<Feed> = FeedId::ALL.iter().map(|&id| Feed::new(id, false)).collect();
        for member in &members {
            feeds[member_feed_index(member)] = member.empty_feed();
        }
        feeds[FeedId::Hu.index()].samples = Some(0);

        let mut obs = ShardObs::new(false);
        let mut sources = Vec::new();
        for member in &members {
            let records = crate::engine::member_source_records(world, member, plan, &mut obs);
            sources.push(SourceStream {
                feed: member_feed_index(member),
                cursor: 0,
                records,
            });
        }
        sources.push(SourceStream {
            feed: FeedId::Hu.index(),
            cursor: 0,
            records: hu_source_records(world, plan, &mut obs),
        });
        for (id, cfg) in [(FeedId::Dbl, &config.dbl), (FeedId::Uribl, &config.uribl)] {
            sources.push(SourceStream {
                feed: id.index(),
                cursor: 0,
                records: blacklist_source_records(world, cfg, id, plan, &mut obs),
            });
        }
        for s in &mut sources {
            s.records.sort_by_key(|r| r.time);
        }

        Ok(IngestState {
            members,
            fast_ok: compute_fast_ok(world),
            feeds,
            rows_done: 0,
            total_rows: world.truth.log.len,
            watermark: SimTime::ZERO,
            sources,
        })
    }

    /// Rebuilds state from a checkpoint: `feeds` restored to their
    /// sealed-epoch contents (building state), `rows_done` rows already
    /// applied. Source cursors are repositioned at the watermark —
    /// presampling is deterministic, so the skipped prefix is exactly
    /// the set of records the checkpointed feeds already contain.
    pub fn resume(
        world: &MailWorld,
        config: &FeedsConfig,
        plan: &FaultPlan,
        feeds: Vec<Feed>,
        rows_done: usize,
    ) -> Result<IngestState, PipelineError> {
        let mut state = IngestState::new(world, config, plan)?;
        if rows_done > state.total_rows {
            return Err(PipelineError::InvalidScenario(format!(
                "checkpoint claims {rows_done} rows but the log has {}",
                state.total_rows
            )));
        }
        if feeds.len() != FeedId::ALL.len() {
            return Err(PipelineError::InvalidScenario(format!(
                "checkpoint carries {} feeds, need {}",
                feeds.len(),
                FeedId::ALL.len()
            )));
        }
        state.watermark = watermark_at(world, rows_done);
        state.rows_done = rows_done;
        state.feeds = feeds;
        for s in &mut state.sources {
            s.cursor = s.records.partition_point(|r| r.time <= state.watermark);
        }
        Ok(state)
    }

    /// Time-sorted event rows in the log.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Rows already ingested.
    pub fn rows_done(&self) -> usize {
        self.rows_done
    }

    /// True once every event row has been applied.
    pub fn ingest_complete(&self) -> bool {
        self.rows_done == self.total_rows
    }

    /// Sim-time watermark: every event at or before it is ingested.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// The ten building feeds in [`FeedId::ALL`] order.
    pub fn feeds(&self) -> &[Feed] {
        &self.feeds
    }

    /// Ingests time-sorted rows `rows_done..target_row` on `par`
    /// workers, then replays every pre-decided source record up to the
    /// new watermark. Returns the number of rows applied.
    pub fn advance(
        &mut self,
        world: &MailWorld,
        plan: &FaultPlan,
        par: &Parallelism,
        target_row: usize,
    ) -> usize {
        let target = target_row.min(self.total_rows);
        if target <= self.rows_done {
            return 0;
        }
        let ctx = RunCtx::build(world, &self.members, plan, self.fast_ok.clone());
        let start = self.rows_done;
        let mut watermark = self.watermark;
        world.truth.for_each_sorted(start..target, |buf, rows| {
            watermark = buf.time[rows.end - 1];
            let shards = shard_ranges(rows, par.workers());
            for (shard, _metrics) in par.par_map(shards, |r| run_rows(&ctx, buf, r, false)) {
                for (piece, member) in shard.into_iter().zip(&self.members) {
                    self.feeds[member_feed_index(member)].merge(piece);
                }
            }
        });
        self.rows_done = target;
        self.watermark = watermark;
        self.replay_sources_to(self.watermark);
        target - start
    }

    /// Applies every pre-decided source record with `time <= limit`.
    fn replay_sources_to(&mut self, limit: SimTime) {
        let mut obs = ShardObs::new(false);
        for s in &mut self.sources {
            while s.cursor < s.records.len() && s.records[s.cursor].time <= limit {
                apply_source_record(&mut self.feeds[s.feed], &s.records[s.cursor], &mut obs);
                s.cursor += 1;
            }
        }
    }

    /// Seals the current state into a queryable [`FeedSet`] without
    /// disturbing ingestion: readers get this frozen epoch while the
    /// daemon keeps advancing the building copy. Gap markers for
    /// outage windows are attached, as in the batch pipeline.
    pub fn sealed_snapshot(&self, plan: &FaultPlan) -> FeedSet {
        let mut feeds = self.feeds.clone();
        note_gaps(&mut feeds, plan);
        FeedSet::new(feeds)
    }

    /// Drains every remaining source record (blacklist listings can
    /// land after the last delivery event) and seals the final set.
    /// Once every row has been ingested, the result is bit-identical
    /// to the batch pipeline's [`crate::try_collect_all_faulted`].
    pub fn finish(&mut self, plan: &FaultPlan) -> FeedSet {
        debug_assert!(self.ingest_complete(), "finish() before the last row");
        self.replay_sources_to(SimTime(u64::MAX));
        self.sealed_snapshot(plan)
    }
}

/// The sim-time watermark after `rows` time-sorted rows: the time of
/// the last ingested row (or zero before any row).
fn watermark_at(world: &MailWorld, rows: usize) -> SimTime {
    let mut watermark = SimTime::ZERO;
    if rows > 0 {
        world
            .truth
            .for_each_sorted(rows - 1..rows, |buf, r| watermark = buf.time[r.end - 1]);
    }
    watermark
}

/// Attaches outage windows as gap markers, as the batch pipeline does.
fn note_gaps(feeds: &mut [Feed], plan: &FaultPlan) {
    if plan.is_off() {
        return;
    }
    for feed in feeds {
        for window in plan.outage_windows(feed.id.label()) {
            feed.note_gap(window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_collect_all_faulted;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::MailConfig;
    use taster_sim::FaultProfile;

    fn world(scale: f64, seed: u64, max_mem_bytes: Option<u64>) -> MailWorld {
        let mut config = EcosystemConfig::default().with_scale(scale);
        config.max_mem_bytes = max_mem_bytes;
        let truth = GroundTruth::generate(&config, seed).expect("generate");
        MailWorld::build(truth, MailConfig::default().with_scale(scale)).expect("build")
    }

    /// The in-core world, and the same world under a budget of the
    /// rank permutation plus 4096 rows, which ingests out of core in
    /// several sorted buckets per epoch.
    fn worlds() -> [MailWorld; 2] {
        let in_core = world(0.02, 67, None);
        let n = in_core.truth.log.len as u64;
        let row = taster_ecosystem::buffer::EventBuffer::bytes_per_event() as u64;
        let streamed = world(0.02, 67, Some(4 * n + 4096 * row));
        assert!(in_core.truth.in_core() && !streamed.truth.in_core());
        [in_core, streamed]
    }

    fn assert_sets_equal(a: &FeedSet, b: &FeedSet) {
        for id in FeedId::ALL {
            let (x, y) = (a.get(id), b.get(id));
            assert_eq!(x.samples, y.samples, "{id} samples");
            assert_eq!(x.unique_domains(), y.unique_domains(), "{id} domains");
            assert_eq!(x.unique_fqdns(), y.unique_fqdns(), "{id} fqdns");
            assert_eq!(x.gaps(), y.gaps(), "{id} gaps");
            for (d, s) in x.iter() {
                assert_eq!(Some(s), y.stats(d), "{id} {d:?}");
            }
        }
    }

    #[test]
    fn epoch_ingestion_matches_batch_collection() {
        let [reference, streamed] = worlds();
        let cfg = FeedsConfig::default();
        for profile in [FaultProfile::off(), FaultProfile::lossy_feeds()] {
            let plan = FaultPlan::new(profile, reference.truth.seed);
            let batch = try_collect_all_faulted(&reference, &cfg, &plan, &Parallelism::serial())
                .expect("batch");
            for w in [&reference, &streamed] {
                let mut state = IngestState::new(w, &cfg, &plan).expect("state");
                let par = Parallelism::fixed(2);
                // Ragged epochs on purpose: boundaries must not matter.
                let total = state.total_rows();
                for target in [total / 7, total / 3, total / 2 + 11, total] {
                    state.advance(w, &plan, &par, target);
                    assert_eq!(state.watermark(), watermark_at(&reference, target));
                }
                let incremental = state.finish(&plan);
                assert_sets_equal(&batch, &incremental);
            }
        }
    }

    #[test]
    fn resume_from_restored_feeds_matches_uninterrupted() {
        let [reference, streamed] = worlds();
        let cfg = FeedsConfig::default();
        let plan = FaultPlan::new(FaultProfile::feed_outage(), reference.truth.seed);
        let par = Parallelism::serial();

        let mut full = IngestState::new(&reference, &cfg, &plan).expect("state");
        let total = full.total_rows();
        full.advance(&reference, &plan, &par, total);
        let uninterrupted = full.finish(&plan);

        for w in [&reference, &streamed] {
            // "Crash" after 40% of the rows: keep only the building
            // feeds and the row counter, as a checkpoint would.
            let mut first = IngestState::new(w, &cfg, &plan).expect("state");
            let stop = total * 2 / 5;
            first.advance(w, &plan, &par, stop);
            let feeds = first.feeds().to_vec();

            let mut resumed = IngestState::resume(w, &cfg, &plan, feeds, stop).expect("resume");
            assert_eq!(resumed.watermark(), first.watermark());
            resumed.advance(w, &plan, &par, total);
            let replayed = resumed.finish(&plan);
            assert_sets_equal(&uninterrupted, &replayed);
        }
    }
}
