//! The serde form of netlists and mapped designs: the per-record JSON
//! (nets as `{"name": …}` objects, gates with their path strings) that
//! the interned name tables serialize to by hand, byte for byte.

use chatls_liberty::nangate45;
use chatls_synth::{MappedDesign, SessionBuilder};
use chatls_verilog::netlist::{GateKind, Netlist};

/// Two module paths, a register with an async reset and an enable, and a
/// `dont_touch` buffer.
fn golden_netlist() -> Netlist {
    let mut nl = Netlist::new("top");
    let a = nl.add_net("a");
    let rst = nl.add_net("rst");
    let en = nl.add_net("en");
    let w = nl.add_net("top/u_sub/w");
    let b = nl.add_net("top/u_sub/w$buf4");
    let q = nl.add_net("q");
    nl.inputs.extend([("a".into(), a), ("rst".into(), rst), ("en".into(), en)]);
    nl.outputs.push(("q".into(), q));
    nl.clock = Some("clk".into());
    nl.add_gate(GateKind::Not, &[a], w, "top/u_sub");
    let buf = nl.add_gate(GateKind::Buf, &[w], b, "top");
    nl.gates[buf as usize].dont_touch = true;
    let dff = nl.add_dff(b, q, "top/u_sub", true, Some(rst));
    nl.gates[dff as usize].enable = Some(en);
    nl
}

/// The JSON the per-record netlist (one `String` per net and per gate
/// path) serialized this netlist to.
const GOLDEN: &str = concat!(
    r#"{"name":"top","nets":[{"name":"a"},{"name":"rst"},{"name":"en"},"#,
    r#"{"name":"top/u_sub/w"},{"name":"top/u_sub/w$buf4"},{"name":"q"}],"#,
    r#""gates":[{"kind":"Not","inputs":[0],"output":3,"path":"top/u_sub","#,
    r#""reset_value":false,"async_reset":null,"enable":null,"dont_touch":false},"#,
    r#"{"kind":"Buf","inputs":[3],"output":4,"path":"top","reset_value":false,"#,
    r#""async_reset":null,"enable":null,"dont_touch":true},"#,
    r#"{"kind":"Dff","inputs":[4],"output":5,"path":"top/u_sub","reset_value":true,"#,
    r#""async_reset":1,"enable":2,"dont_touch":false}],"#,
    r#""inputs":[["a",0],["rst",1],["en",2]],"outputs":[["q",5]],"clock":"clk"}"#
);

#[test]
fn hand_built_netlist_serializes_to_the_per_record_json() {
    let nl = golden_netlist();
    assert_eq!(nl.paths, ["top/u_sub", "top"], "paths interned once, in order of first use");
    assert_eq!(serde_json::to_string(&nl).unwrap(), GOLDEN);
    let back: Netlist = serde_json::from_str(GOLDEN).unwrap();
    assert_eq!(back, nl);
    assert_eq!(back.paths, nl.paths);
    // A gate without its path string is an error, not a guess.
    let pathless = GOLDEN.replace(r#""path":"top","#, "");
    let err = serde_json::from_str::<Netlist>(&pathless).unwrap_err().to_string();
    assert!(err.contains("Gate.path"), "{err}");
}

/// Serializes, reads back, and checks the copy equals the original and
/// serializes to the same bytes.
fn assert_round_trips<T>(value: &T, what: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq,
{
    let json = serde_json::to_string(value).unwrap();
    let back: T = serde_json::from_str(&json).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(back == *value, "{what}: the read-back copy differs");
    assert!(serde_json::to_string(&back).unwrap() == json, "{what}: re-serialized JSON differs");
}

#[test]
fn catalog_netlists_and_mapped_designs_round_trip() {
    let lib = nangate45();
    let catalog =
        chatls_designs::benchmarks().into_iter().chain(chatls_designs::database_designs());
    for design in catalog {
        let netlist = design.netlist();
        assert_round_trips(&netlist, &format!("{} netlist", design.name));
        let mapped = MappedDesign::map(netlist, &lib).expect("maps");
        assert_round_trips(&mapped, &format!("{} mapped", design.name));
    }
}

/// After ungrouping, a design's path table still lists the module paths
/// no gate uses; it reads back with only the used ones, and equality and
/// the JSON do not depend on the difference.
#[test]
fn ungrouped_design_round_trips_with_a_shorter_path_table() {
    let design = chatls_designs::by_name("riscv32i").expect("benchmark");
    let mut session = SessionBuilder::new(design.netlist(), nangate45()).session().expect("maps");
    let run =
        session.run_script("create_clock -period 2.0 [get_ports clk]\ncompile_ultra -retime\n");
    assert!(run.ok(), "{:?}", run.error);
    let synthesized = session.design();
    assert!(synthesized.netlist.paths.len() > 1);
    assert_round_trips(synthesized, "ungrouped riscv32i");
    let json = serde_json::to_string(synthesized).unwrap();
    let back: MappedDesign = serde_json::from_str(&json).unwrap();
    assert_eq!(back.netlist.paths, [synthesized.netlist.name.as_str()]);
}
