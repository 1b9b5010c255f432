//! Quickstart: the traffic-management model of the paper's Figure 3 in
//! ~60 lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A road segment starts *clear*; a `ManySlowCars` condition switches it
//! into *congestion*, where newly entering cars (no position report 30
//! seconds earlier — the `SEQ(NOT ...)` pattern) are charged toll.

use caesar::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut system = Caesar::builder()
        .schema(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("lane", AttrType::Str),
            ],
        )
        .schema("ManySlowCars", &[("seg", AttrType::Int)])
        .schema("FewFastCars", &[("seg", AttrType::Int)])
        .within(60)
        .model_text(
            r#"
            MODEL traffic DEFAULT clear
            CONTEXT clear {
                SWITCH CONTEXT congestion PATTERN ManySlowCars
            }
            CONTEXT congestion {
                SWITCH CONTEXT clear PATTERN FewFastCars
                DERIVE NewTravelingCar(p2.vid, p2.sec)
                    PATTERN SEQ(NOT PositionReport p1, PositionReport p2)
                    WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid
                          AND p2.lane != "exit"
                DERIVE TollNotification(p.vid, p.sec, 5)
                    PATTERN NewTravelingCar p
            }
        "#,
        )
        .build()?;

    println!("--- optimizer explain ---\n{}", system.explain);

    // Car 7 cruises from t=0; congestion starts at t=45; car 9 enters
    // the congested segment at t=60 (its first report) and is tolled;
    // car 7 reported 30s earlier *within the window*? No: its t=30
    // report predates the window, so its t=60 report is also "new".
    let mk_report = |t: Time, vid: i64, lane: &str, sys: &CaesarSystem| {
        sys.event("PositionReport", t)
            .unwrap()
            .attr("vid", vid)
            .unwrap()
            .attr("sec", t as i64)
            .unwrap()
            .attr("lane", lane)
            .unwrap()
            .build()
            .unwrap()
    };
    let events = vec![
        mk_report(0, 7, "travel", &system),
        mk_report(30, 7, "travel", &system),
        system.event("ManySlowCars", 45)?.attr("seg", 1)?.build()?,
        mk_report(60, 7, "travel", &system),
        mk_report(60, 9, "travel", &system),
        mk_report(90, 9, "travel", &system), // not new: no toll
    ];
    let report = system.run_stream(&mut VecStream::new(events))?;
    println!("--- run report ---");
    println!("events in:            {}", report.events_in);
    println!(
        "toll notifications:   {}",
        report.outputs_of("TollNotification")
    );
    println!("plans suspended:      {}", report.plans_suspended);
    assert_eq!(report.outputs_of("TollNotification"), 2);
    Ok(())
}
