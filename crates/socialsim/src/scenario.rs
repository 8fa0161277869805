//! Ready-made scenes used throughout the workspace.
//!
//! Two scenes reproduce the paper's two worked examples:
//!
//! * [`passenger_car_europe`] — the European passenger-car tuning scene behind the
//!   ECM-reprogramming case study (Figures 8 and 9).  Its trend model encodes the
//!   inversion the paper observes: bench/physical flashing fades after 2021 while
//!   OBD-local flashing keeps growing.
//! * [`excavator_europe`] — the European excavator scene behind the financial case
//!   study (Figure 12 and Equations 6–7), where disabling the diesel particulate
//!   filter (DPF) is the dominant insider attack.
//!
//! The trend models are exposed separately (`*_trends`) so benches can regenerate
//! corpora with different seeds or windows.

use crate::corpus::Corpus;
use crate::generator::CorpusGenerator;
use crate::post::{Region, TargetApplication};
use crate::trend::{TopicTrend, TrendModel};

/// The trend model of the European passenger-car tuning / attack scene.
#[must_use]
pub fn passenger_car_europe_trends() -> TrendModel {
    TrendModel::new(TargetApplication::PassengerCar, Region::Europe)
        // Bench / boot-mode flashing: the classic *physical* reprogramming route.
        // Strong historically, fading once OBD tools caught up (paper Fig. 9-B/C).
        .topic(
            TopicTrend::new("bench-flash")
                .with_hashtag("benchflash")
                .with_hashtag("bootmode")
                .with_hashtag("ecuclone")
                .volume_range(2015, 2019, 300)
                .volume(2020, 150)
                .volume(2021, 60)
                .volume(2022, 30)
                .volume(2023, 15)
                .engagement(2_500, 70)
                .advertised_price(420.0),
        )
        // OBD flashing / chip tuning: the *local* route, growing year on year.
        .topic(
            TopicTrend::new("obd-flash")
                .with_hashtag("chiptuning")
                .with_hashtag("obdtuning")
                .with_hashtag("stage1")
                .volume_range(2015, 2019, 80)
                .volume(2020, 120)
                .volume(2021, 180)
                .volume(2022, 260)
                .volume(2023, 320)
                .engagement(3_000, 90)
                .advertised_price(350.0),
        )
        // Emission defeat on diesel passenger cars (insider, local via OBD).
        .topic(
            TopicTrend::new("dpf-egr-delete")
                .with_hashtag("dpfdelete")
                .with_hashtag("egrdelete")
                .with_hashtag("egroff")
                .with_hashtag("dieselpower")
                .volume_range(2016, 2023, 110)
                .engagement(2_200, 60)
                .advertised_price(300.0),
        )
        // Key-fob relay theft (outsider, adjacent/short-range).
        .topic(
            TopicTrend::new("keyfob-relay")
                .with_hashtag("relayattack")
                .with_hashtag("keylesstheft")
                .volume_range(2018, 2023, 70)
                .engagement(8_000, 40),
        )
        // Remote telematics exploitation chatter (outsider, network).
        .topic(
            TopicTrend::new("telematics-exploit")
                .with_hashtag("carhacking")
                .with_hashtag("telematicshack")
                .volume_range(2015, 2023, 25)
                .engagement(12_000, 55),
        )
}

/// A generated corpus for the passenger-car scene.
#[must_use]
pub fn passenger_car_europe(seed: u64) -> Corpus {
    CorpusGenerator::new(seed).generate(&passenger_car_europe_trends())
}

/// The trend model of the European excavator insider-attack scene.
#[must_use]
pub fn excavator_europe_trends() -> TrendModel {
    TrendModel::new(TargetApplication::Excavator, Region::Europe)
        .topic(
            TopicTrend::new("dpf-delete")
                .with_hashtag("dpfdelete")
                .with_hashtag("dpfoff")
                .volume_range(2018, 2023, 150)
                .engagement(3_500, 110)
                .advertised_price(360.0),
        )
        .topic(
            TopicTrend::new("egr-delete")
                .with_hashtag("egrdelete")
                .with_hashtag("egrremoval")
                .volume_range(2018, 2023, 80)
                .engagement(2_400, 70)
                .advertised_price(250.0),
        )
        .topic(
            TopicTrend::new("adblue-emulator")
                .with_hashtag("adblueemulator")
                .with_hashtag("scroff")
                .volume_range(2019, 2023, 60)
                .engagement(2_000, 55)
                .advertised_price(180.0),
        )
        .topic(
            TopicTrend::new("chip-tuning")
                .with_hashtag("chiptuning")
                .with_hashtag("powerboost")
                .volume_range(2018, 2023, 40)
                .engagement(1_800, 45)
                .advertised_price(500.0),
        )
        .topic(
            TopicTrend::new("speed-limiter-removal")
                .with_hashtag("speedlimiteroff")
                .volume_range(2019, 2023, 20)
                .engagement(1_200, 30)
                .advertised_price(150.0),
        )
        .topic(
            TopicTrend::new("hour-meter-rollback")
                .with_hashtag("hourmeterrollback")
                .volume_range(2018, 2023, 10)
                .engagement(900, 20)
                .advertised_price(120.0),
        )
}

/// A generated corpus for the excavator scene.
#[must_use]
pub fn excavator_europe(seed: u64) -> Corpus {
    CorpusGenerator::new(seed).generate(&excavator_europe_trends())
}

/// The seed hashtags the paper lists as the manual starting point of the PSP
/// keyword-attack database (Figure 7, blocks 3 and 4).
#[must_use]
pub fn seed_hashtags() -> Vec<&'static str> {
    vec![
        "dpfdelete",
        "egrremoval",
        "egrdelete",
        "egroff",
        "dieselpower",
        "chiptuning",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::time::DateWindow;
    use crate::trend::{TopicTrend, TrendModel};

    fn named<'a>(trends: &'a TrendModel, name: &str) -> &'a TopicTrend {
        trends.topics().iter().find(|t| t.topic() == name).unwrap()
    }

    fn total_posts(topic: &TopicTrend) -> u64 {
        topic
            .active_years()
            .into_iter()
            .map(|y| u64::from(topic.posts_in(y)))
            .sum()
    }

    #[test]
    fn passenger_scene_encodes_the_trend_inversion() {
        let trends = passenger_car_europe_trends();
        let bench = named(&trends, "bench-flash");
        let obd = named(&trends, "obd-flash");
        // Historically bench flashing dominates…
        assert!(total_posts(bench) > total_posts(obd));
        // …but since 2021 the OBD route dominates.
        let bench_recent: u64 = (2021..=2023).map(|y| u64::from(bench.posts_in(y))).sum();
        let obd_recent: u64 = (2021..=2023).map(|y| u64::from(obd.posts_in(y))).sum();
        assert!(obd_recent > bench_recent * 3);
    }

    #[test]
    fn excavator_scene_is_dominated_by_dpf_delete() {
        let trends = excavator_europe_trends();
        let dpf = total_posts(named(&trends, "dpf-delete"));
        for topic in trends.topics() {
            if topic.topic() != "dpf-delete" {
                assert!(dpf > total_posts(topic), "{} beats dpf", topic.topic());
            }
        }
    }

    #[test]
    fn generated_corpora_are_nonempty_and_deterministic() {
        let a = excavator_europe(42);
        let b = excavator_europe(42);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn passenger_corpus_shows_inversion_through_the_query_api() {
        let corpus = passenger_car_europe(42);
        let all_time = |tag| corpus.search(&Query::new().with_hashtag(tag)).len();
        let recent = |tag| {
            let window = Query::new().within(DateWindow::years(2021, 2023));
            corpus.search(&window.with_hashtag(tag)).len()
        };

        let (bench_all, obd_all) = (all_time("#benchflash"), all_time("#chiptuning"));
        let (bench_recent, obd_recent) = (recent("#benchflash"), recent("#chiptuning"));

        assert!(bench_all > obd_all, "{bench_all} vs {obd_all}");
        assert!(obd_recent > bench_recent, "{obd_recent} vs {bench_recent}");
    }

    #[test]
    fn seed_hashtags_match_the_paper() {
        let tags = seed_hashtags();
        assert_eq!(tags.len(), 6);
        assert!(tags.contains(&"dpfdelete"));
        assert!(tags.contains(&"chiptuning"));
    }

    #[test]
    fn excavator_corpus_contains_priced_dpf_posts() {
        let corpus = excavator_europe(7);
        let priced = corpus
            .iter()
            .filter(|p| p.mentions("dpf") && p.text().contains("EUR"))
            .count();
        assert!(priced > 0);
    }
}
