//! Recorded reference statistics of the leading units of a run on
//! [`DEFAULT_SEED`](crate::workloads::DEFAULT_SEED). Regenerate with
//! `--print-reference` after a change that is meant to alter simulated
//! behaviour.

use crate::workloads::Kind;

/// The reference lines of `kind`.
#[must_use]
pub fn lines(kind: Kind) -> Vec<String> {
    let lines: &[&str] = match kind {
        Kind::VocoderArch => VOCODER_ARCH,
        Kind::TasksetEdf => TASKSET_EDF,
        Kind::Sweep => SWEEP,
        Kind::IssImpl => ISS_IMPL,
    };
    lines.iter().map(|s| (*s).to_string()).collect()
}

const VOCODER_ARCH: &[&str] = &[
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.558426322549074 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.52817931123323 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.4561949685426 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.80098595406989 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.426507877182374 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.178728481087354 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.560678660959255 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
    "frames=200 switches=1602 mean_delay_ns=12500000 max_delay_ns=12500000 snr_db=42.64781755173808 misses=0 dispatches=1802 kernel=1802/1802/3/18804/18801/34000/3/2004",
];
const TASKSET_EDF: &[&str] = &[
    "cycles_run=2297 misses=0 kernel=3339/3339/64/15091/15091/24028/64/6704 outcome=002d56b7402dab04eee5f1192bde93c8",
    "cycles_run=2164 misses=0 kernel=3122/3122/64/14360/14360/22902/64/6351 outcome=dde1ee57b772ba97cfffd871e86e0259",
    "cycles_run=2763 misses=0 kernel=3946/3946/64/16908/16908/26507/64/8018 outcome=4703880c64d244f4e1db7e890b69de3d",
    "cycles_run=2121 misses=0 kernel=3142/3142/64/14390/14390/22980/64/6283 outcome=26685a3ea123753e7c12b0e9464e66fd",
    "cycles_run=2351 misses=0 kernel=3486/3486/64/15623/15623/24744/64/7040 outcome=a6efa8218acd52526db96ba20f808ac6",
    "cycles_run=2530 misses=0 kernel=3721/3721/64/16501/16501/26083/64/7448 outcome=fe8572df2033d9b9e24426827f942590",
    "cycles_run=2122 misses=0 kernel=3139/3139/64/14421/14421/23037/64/6276 outcome=9a042d686ad972d9f6bc7f4e9ddfc552",
    "cycles_run=2192 misses=0 kernel=3172/3172/64/14536/14536/23219/64/6416 outcome=ea068ffe94c05695f9f304be494a1fff",
];
const SWEEP: &[&str] = &[
    "doc=9d7435526a20b3ef0f378d251cec9e17",
    "comm/ideal transactions=80 busy_us=0.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w32/fixed_priority/PriorityPreemptive transactions=80 busy_us=200.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w8/fixed_priority/PriorityPreemptive transactions=80 busy_us=220.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w2/fixed_priority/PriorityPreemptive transactions=80 busy_us=360.000 contended=30 max_wait_us=0.450 frames=10",
    "comm/w1/fixed_priority/PriorityPreemptive transactions=80 busy_us=560.000 contended=30 max_wait_us=1.450 frames=10",
    "comm/w32/round_robin/PriorityPreemptive transactions=80 busy_us=200.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w8/round_robin/PriorityPreemptive transactions=80 busy_us=220.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w2/round_robin/PriorityPreemptive transactions=80 busy_us=360.000 contended=30 max_wait_us=0.450 frames=10",
    "comm/w1/round_robin/PriorityPreemptive transactions=80 busy_us=560.000 contended=30 max_wait_us=1.450 frames=10",
    "comm/w32/fixed_priority/PriorityCooperative transactions=80 busy_us=200.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w8/fixed_priority/PriorityCooperative transactions=80 busy_us=220.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w2/fixed_priority/PriorityCooperative transactions=80 busy_us=360.000 contended=9 max_wait_us=0.450 frames=10",
    "comm/w1/fixed_priority/PriorityCooperative transactions=80 busy_us=560.000 contended=9 max_wait_us=1.450 frames=10",
    "comm/w32/round_robin/PriorityCooperative transactions=80 busy_us=200.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w8/round_robin/PriorityCooperative transactions=80 busy_us=220.000 contended=0 max_wait_us=0.000 frames=10",
    "comm/w2/round_robin/PriorityCooperative transactions=80 busy_us=360.000 contended=9 max_wait_us=0.450 frames=10",
    "comm/w1/round_robin/PriorityCooperative transactions=80 busy_us=560.000 contended=9 max_wait_us=1.450 frames=10",
];
const ISS_IMPL: &[&str] = &[
    "frames=8 switches=65 cycles=10303059 instructions=3748558 delays_ns=11701933,11701933,11701933,11701933,11701933,11701933,11701933,11701933",
];
