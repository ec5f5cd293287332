//! The experiments called through the library, without the binary: one
//! tiny context, then `run` by name, with each result read from its JSON
//! and held to the text block the same call renders.

use sixdust_experiments::{run, Ctx, ObsOptions};
use sixdust_json::Value;
use sixdust_net::Scale;

/// The data rows of a rendered text table: the lines after its rule.
fn table_rows(text: &str) -> Vec<&str> {
    text.lines().skip_while(|line| !line.starts_with("---")).skip(1).collect()
}

fn number(row: &Value, key: &str) -> f64 {
    match row.get(key) {
        Some(Value::Float(x)) => *x,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn table5_and_fig6_are_read_through_run() {
    let ctx = Ctx::build_resumable(Scale::tiny().with_seed(11), ObsOptions::default(), None)
        .expect("no checkpoint to set aside");
    // Only `publish` writes, and none of these is `publish`.
    let out_dir = std::path::Path::new("no-such-dir");

    // Table 5: the top two ASes' shares add up to the CDF the text prints
    // on its second row (AS4134 and AS4812 at this seed).
    let table5 = run("table5", &ctx, out_dir).expect("table5 is an experiment");
    let top10 = table5.json.get("top10").expect("top10").as_array().unwrap();
    let top2 = number(&top10[0], "pct") + number(&top10[1], "pct");
    assert_eq!(format!("{top2:.2}"), "77.85");
    let second = table_rows(&table5.text)[1];
    assert_eq!(second.split_whitespace().last(), Some("77.85"), "{}", table5.text);

    // Fig. 6: Fastly's aliased share of its announced space, as the text
    // shows it.
    let fig6 = run("fig6", &ctx, out_dir).expect("fig6 is an experiment");
    let ases = fig6.json.get("ases").expect("ases").as_array().unwrap();
    let fastly = ases
        .iter()
        .find(|row| row.get("as").and_then(|name| name.as_str().ok()) == Some("Fastly"))
        .expect("Fastly holds aliased prefixes");
    let share = number(fastly, "share");
    assert!(share > 0.9, "Fastly's announced space is mostly aliased: {share}");
    let row = table_rows(&fig6.text).into_iter().find(|row| row.starts_with("Fastly ")).unwrap();
    assert!(row.ends_with(&sixdust_analysis::pct(share)), "{row}");

    assert!(run("nope", &ctx, out_dir).is_none());
    assert!(!out_dir.exists());
}
