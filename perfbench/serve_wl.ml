(* serve-stream: one client sending one job per request to
   [Service.process_lines] on one domain, with metrics recording on as
   rlcserved sets it.

   Twelve structural families of value-only variants: RC grids (sparse;
   dc and ac jobs), RLC ladders (banded; tran, delay, delay-sens and ac
   jobs) and tiny decks (dense; dc jobs).  Every 16-job cycle holds the
   same slot mix, so the op mix, and with it the latency modes, is
   fixed: 12 jobs on fresh decks (2 grid, 6 ladder, 4 tiny) and 4 exact
   replays of the latest fresh ladder-tran, ladder-delay, grid-dc and
   tiny deck.  The stream repeats after 48 cycles, i.e. 576 distinct
   decks: more than the exact-text memo holds (512), so fresh decks
   always miss it and replays always hit it, while the families fit
   the structural cache (64). *)

open Rlc_circuit
open Rlc_numerics
module Service = Rlc_serve.Service
module Protocol = Rlc_serve.Protocol
module Deck_cache = Rlc_serve.Deck_cache
module H = Harness

let grid_sides = [| 24; 28; 32; 36; 40 |]

(* Grid AC jobs, the slowest kind, all use one family: they form one
   latency mode of 1/16 of the ops, which holds the 99th percentile
   well inside it. *)
let ac_grid_side = 32
let ladder_segments = [| 100; 200; 300; 400 |]
let cycles = 48

type slot =
  | Grid_dc
  | Grid_ac
  | Ladder_tran
  | Ladder_delay
  | Ladder_sens
  | Ladder_ac
  | Tiny_dc
  | Replay of slot  (** the latest fresh job of that slot *)

let template =
  [| Grid_dc; Grid_ac; Ladder_tran; Ladder_tran; Ladder_delay; Ladder_delay;
     Ladder_sens; Ladder_ac; Tiny_dc; Tiny_dc; Tiny_dc; Tiny_dc;
     Replay Ladder_tran; Replay Ladder_delay; Replay Grid_dc; Replay Tiny_dc |]

let cycle_len = Array.length template
let period = cycles * cycle_len

(* ---- seeded decks ---- *)

let grid_deck b ~tag ~scale n =
  Printf.bprintf b "* rc grid %d %s\nV1 n_0_0 0 DC 1\n" n tag;
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if c + 1 < n then
        Printf.bprintf b "Rh%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c r (c + 1)
          (10.0 *. scale);
      if r + 1 < n then
        Printf.bprintf b "Rv%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c (r + 1) c
          (12.0 *. scale);
      Printf.bprintf b "C%d_%d n_%d_%d 0 %.6gp\n" r c r c (0.5 *. scale)
    done
  done;
  Printf.bprintf b "RL n_%d_%d 0 %.6g\n.end\n" (n - 1) (n - 1) (200.0 /. scale)

let ladder_deck b ~tag ~scale segments =
  Printf.bprintf b
    "* rlc ladder %d %s\n\
     V1 in 0 PULSE(0 1 0 20p 20p 2n 4n)\n\
     RS in drv %.6g\n\
     W1 drv far r=%.6g l=%.6gu c=%.6gp len=11m seg=%d\n\
     CL far 0 %.6gf\n\
     .end\n"
    segments tag (200.0 *. scale) (4400.0 *. scale) (1.5 *. scale)
    (123.33 *. scale) segments (20.0 *. scale)

let tiny_deck b ~tag ~scale fam =
  Printf.bprintf b "* tiny %d %s\nV1 a 0 DC 1\n" fam tag;
  (match fam with
  | 0 -> Printf.bprintf b "R1 a b %.6gk\nR2 b 0 %.6gk\nC1 b 0 1p\n" scale (2.0 *. scale)
  | 1 ->
      Printf.bprintf b "R1 a b %.6g\nL1 b c 1n\nR2 c 0 %.6g\nC1 c 0 2p\n"
        (50.0 *. scale) (75.0 *. scale)
  | _ ->
      Printf.bprintf b
        "R1 a b %.6g\nR2 b c %.6g\nR3 c d %.6g\nR4 d 0 %.6g\nR5 b d %.6g\nC1 c 0 1p\n"
        (100.0 *. scale) (220.0 *. scale) (330.0 *. scale) (470.0 *. scale)
        (680.0 *. scale));
  Buffer.add_string b ".end\n"

(* The job stream of one period: each entry is the full job line, and
   for a replay the index of the fresh job it repeats.  Each slot kind
   walks through its family sizes with its own counter, so the
   sequence of (kind, family) pairs is the same for every seed; the
   seed draws every element value, so every deck text. *)
type job = { line : string; replay_of : int }

let generate ~seed =
  let st = Random.State.make [| seed; 0x5e7e |] in
  (* The slot order is the same for every seed: with a seeded order the
     process's peak RSS moved by about 10 % from seed to seed, as the
     allocation order shifted the major GC's peaks. *)
  let order_st = Random.State.make [| 0x5e7e |] in
  let jobs = Array.make period { line = ""; replay_of = -1 } in
  let queries = Array.make period ("", "") in
  let latest = Hashtbl.create 8 and counters = Hashtbl.create 8 in
  let replays = ref [] in
  let next slot sizes =
    let k = Option.value (Hashtbl.find_opt counters slot) ~default:0 in
    Hashtbl.replace counters slot (k + 1);
    sizes.(k mod Array.length sizes)
  in
  let b = Buffer.create (1 lsl 17) in
  for c = 0 to cycles - 1 do
    let order = Array.copy template in
    for i = cycle_len - 1 downto 1 do
      let j = Random.State.int order_st (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iteri
      (fun k slot ->
        let i = (c * cycle_len) + k in
        let id = Printf.sprintf "j%d" i in
        let scale = 0.8 +. Random.State.float st 0.4 in
        let tag = Printf.sprintf "s%d-%d" seed i in
        Buffer.clear b;
        let fresh query =
          let deck = Protocol.escape_deck (Buffer.contents b) in
          queries.(i) <- (query, deck);
          Hashtbl.replace latest slot i;
          jobs.(i) <- { line = Printf.sprintf "%s %s | %s" id query deck; replay_of = -1 }
        in
        let grid sizes =
          let n = next slot sizes in
          grid_deck b ~tag ~scale n;
          Printf.sprintf "n_%d_%d" (n / 2) (n / 2)
        in
        let ladder () =
          let s = next slot ladder_segments in
          ladder_deck b ~tag ~scale s;
          s
        in
        match slot with
        | Grid_dc -> fresh ("dc " ^ grid grid_sides)
        | Grid_ac -> fresh (Printf.sprintf "ac %s 1 1e6 1e9" (grid [| ac_grid_side |]))
        | Ladder_tran ->
            ignore (ladder ());
            fresh "tran far 10p 1n"
        | Ladder_delay ->
            ignore (ladder ());
            fresh "delay far 0.5 10p 2n"
        | Ladder_sens ->
            let s = ladder () in
            fresh
              (Printf.sprintf "delay-sens far 0.5 W1_seg0:r W1_seg%d:l W1_c1:c RS:r" (s / 2))
        | Ladder_ac ->
            ignore (ladder ());
            fresh "ac far 2 1e8 1e10"
        | Tiny_dc ->
            tiny_deck b ~tag ~scale (next slot [| 0; 1; 2 |]);
            fresh "dc b"
        | Replay kind -> replays := (i, id, kind, Hashtbl.find_opt latest kind) :: !replays)
      order
  done;
  (* a replay ahead of the period's first fresh job of its kind repeats
     the period's last one, which precedes it where the stream wraps *)
  List.iter
    (fun (i, id, kind, src) ->
      let src = match src with Some s -> s | None -> Hashtbl.find latest kind in
      let query, deck = queries.(src) in
      jobs.(i) <- { line = Printf.sprintf "%s %s | %s" id query deck; replay_of = src })
    !replays;
  jobs

(* The result line without its id: replays must reproduce their
   original's answer exactly. *)
let answer line =
  match String.index_opt line ' ' with
  | None -> line
  | Some i -> (
      match String.index_from_opt line (i + 1) ' ' with
      | None -> line
      | Some k -> String.sub line 0 i ^ String.sub line k (String.length line - k))

(* ---- the untraced path: the service itself ---- *)

type state = {
  jobs : job array;
  run : string -> string;
  answers : string array;  (** latest answer per stream index *)
  mutable log : string list option;  (** result lines, newest first *)
}

(* Set-up warms the state on the tail of the period: enough cycles for
   the memo to reach capacity and every family to be compiled, so the
   timed ops, which start at index 0, see the steady state. *)
let warm_cycles = 44

let check st i line =
  let k = i mod period in
  let j = st.jobs.(k) in
  let a = answer line in
  st.answers.(k) <- a;
  String.starts_with ~prefix:"ok " line
  && (j.replay_of < 0 || String.equal a st.answers.(j.replay_of))

let warm st =
  for k = period - (warm_cycles * cycle_len) to period - 1 do
    H.tick ();
    ignore (check st k (st.run st.jobs.(k).line))
  done

let service_state jobs =
  let svc = Service.create () in
  let run line =
    match Service.process_lines svc [ line ] with [ r ] -> r | _ -> "err"
  in
  let st = { jobs; run; answers = Array.make period ""; log = None } in
  warm st;
  st

let op st i =
  let line = st.run st.jobs.(i mod period).line in
  Option.iter (fun l -> st.log <- Some (line :: l)) st.log;
  check st i line

(* ---- the traced path: the service's public calls, spanned ----

   The same per-job sequence [Service] runs for a one-job batch —
   protocol parse, exact-text memo, deck parse, structural key,
   structural cache, stamping, first-sight artifacts, the engine, the
   render — each call into a layer under its own span.  Its result
   lines must equal the service's byte for byte. *)

type memo_entry = {
  netlist : Netlist.t;
  skey : Netlist.structural_key;
  mutable asm : Assembly.t option;
}

type memo_slot = { entry : memo_entry; mutable last_use : int }

type replica = {
  cache : Deck_cache.t;
  memo : (string, memo_slot) Hashtbl.t;
  mutable clock : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable parsed_bytes : int;
}

let memo_capacity = Service.default_config.Service.memo_capacity

let tick r =
  r.clock <- r.clock + 1;
  r.clock

let memo_find r key =
  match Hashtbl.find_opt r.memo key with
  | Some slot ->
      slot.last_use <- tick r;
      r.memo_hits <- r.memo_hits + 1;
      Some slot.entry
  | None ->
      r.memo_misses <- r.memo_misses + 1;
      None

let memo_insert r key entry =
  Hashtbl.replace r.memo key { entry; last_use = tick r };
  while Hashtbl.length r.memo > memo_capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k slot ->
        match !victim with
        | Some (_, best) when best <= slot.last_use -> ()
        | _ -> victim := Some (k, slot.last_use))
      r.memo;
    match !victim with Some (k, _) -> Hashtbl.remove r.memo k | None -> ()
  done

let memo_deck r text =
  let key = H.span "service.memo" (fun () -> Digest.string text) in
  match H.span "service.memo" (fun () -> memo_find r key) with
  | Some m -> m
  | None ->
      r.parsed_bytes <- r.parsed_bytes + String.length text;
      let netlist =
        H.span "parser.parse" (fun () -> (Parser.parse_string text).Parser.netlist)
      in
      let skey = H.span "netlist.key" (fun () -> Netlist.structural_key netlist) in
      let m = { netlist; skey; asm = None } in
      H.span "service.memo" (fun () -> memo_insert r key m);
      m

let memo_assembly m plan =
  match m.asm with
  | Some a -> a
  | None ->
      let a =
        H.span "assembly.stamp" (fun () ->
            match plan with
            | Some plan -> Assembly.of_netlist ~plan ~validate:false m.netlist
            | None -> Assembly.of_netlist m.netlist)
      in
      m.asm <- Some a;
      a

let sparse_plan (p : Solver.plan) = p.Solver.choice = Solver.Sparse_lu

let ensure_artifacts (e : Deck_cache.entry) netlist query asm =
  H.span "service.artifacts" (fun () ->
      try
        match query with
        | Protocol.Q_dc _ | Protocol.Q_delay_sens _ ->
            if e.dc_sym = None && sparse_plan e.asm_plan then
              e.dc_sym <- Solver.symbolic_of (Assembly.factor_g asm)
        | Protocol.Q_ac { fstart; _ } ->
            if e.ac_sym = None && sparse_plan e.asm_plan then
              e.ac_sym <-
                Assembly.cengine_symbolic
                  (Assembly.cengine asm ~s_ref:(Ac.s_of_freq fstart))
        | Protocol.Q_tran _ | Protocol.Q_delay _ ->
            if e.tran_plan = None then
              e.tran_plan <- Some (Transient.structure_plan netlist)
      with _ -> ())

let resolve_node netlist name =
  let key = String.lowercase_ascii name in
  if key = "0" || key = "gnd" then Netlist.ground
  else
    match Netlist.find_node netlist key with
    | Some n -> n
    | None -> failwith (Printf.sprintf "unknown node %S" name)

let waveform_summary w =
  let values = Rlc_waveform.Waveform.values w in
  let n = Array.length values in
  if n = 0 then failwith "empty waveform";
  let vmin = ref values.(0) and vmax = ref values.(0) in
  Array.iter
    (fun v ->
      if v < !vmin then vmin := v;
      if v > !vmax then vmax := v)
    values;
  (values.(n - 1), !vmin, !vmax)

let simulate (entry : Deck_cache.entry option) netlist node ~dt ~t_end =
  let plan_hint = Option.bind entry (fun e -> e.Deck_cache.tran_plan) in
  let config = { Transient.Config.default with plan_hint } in
  let probe = Transient.Node_v node in
  let res =
    H.span "transient.simulate" (fun () ->
        Transient.simulate ~config netlist ~t_end ~dt ~probes:[ probe ])
  in
  (Transient.get res probe, Transient.steps_taken res)

let run_query (entry : Deck_cache.entry option) asm (job : Protocol.job) netlist =
  match job.query with
  | Protocol.Q_dc { node } ->
      let n = resolve_node netlist node in
      let symbolic = Option.bind entry (fun e -> e.Deck_cache.dc_sym) in
      let sys = H.span "dc.solve" (fun () -> Dc.make ~assembly:asm ?symbolic netlist) in
      let refresh =
        match (symbolic, Dc.g_symbolic sys) with
        | Some cached, (Some fresh as r) when not (cached == fresh) -> r
        | _ -> None
      in
      (Protocol.R_dc (Dc.voltages sys).(n), refresh)
  | Protocol.Q_ac { node; points_per_decade; fstart; fstop } ->
      let n = resolve_node netlist node in
      if n = Netlist.ground then failwith "cannot ac-probe ground";
      if Array.length asm.Assembly.inputs = 0 then
        failwith "deck has no independent source";
      let symbolic = Option.bind entry (fun e -> e.Deck_cache.ac_sym) in
      let freqs = Ac.decade_grid ~points_per_decade ~fstart ~fstop in
      let ce =
        H.span "ac.engine" (fun () ->
            Assembly.cengine ?symbolic asm ~s_ref:(Ac.s_of_freq fstart))
      in
      let scratch = Assembly.cengine_scratch ce in
      let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
      let x = Array.make asm.Assembly.size Cx.zero in
      let points =
        Array.map
          (fun freq ->
            H.span "ac.point" (fun () ->
                Assembly.cengine_solve_into ce scratch ~s:(Ac.s_of_freq freq)
                  ~rhs ~x;
                Ac.point_of ~freq x.(n - 1)))
          freqs
      in
      (Protocol.R_ac points, None)
  | Protocol.Q_tran { node; dt; t_end } ->
      let n = resolve_node netlist node in
      let w, steps = simulate entry netlist n ~dt ~t_end in
      let final, vmin, vmax = waveform_summary w in
      (Protocol.R_tran { final; vmin; vmax; steps }, None)
  | Protocol.Q_delay { node; fraction; dt; t_end } ->
      let n = resolve_node netlist node in
      let w, _ = simulate entry netlist n ~dt ~t_end in
      let v_final, _, _ = waveform_summary w in
      ( Protocol.R_delay
          (H.span "measure.crossing" (fun () ->
               Rlc_waveform.Measure.threshold_delay w ~fraction ~v_final)),
        None )
  | Protocol.Q_delay_sens { node; fraction; params } ->
      let n = resolve_node netlist node in
      let ws = H.span "whatif.compile" (fun () -> Whatif.compile ~f:fraction netlist) in
      let param tok =
        let i = String.rindex tok ':' in
        let kind =
          match String.sub tok (i + 1) (String.length tok - i - 1) with
          | "r" -> `R
          | "l" -> `L
          | "c" -> `C
          | _ -> `M
        in
        Whatif.param ws (String.sub tok 0 i) kind
      in
      let wrt = Array.of_list (List.map param params) in
      let target = Whatif.Delay n in
      let tau = H.span "whatif.evaluate" (fun () -> Whatif.evaluate ws target) in
      let g = H.span "whatif.gradient" (fun () -> Whatif.gradient ws target ~wrt) in
      let sens = Array.map2 (fun tok v -> (tok, v)) (Array.of_list params) g in
      (Protocol.R_delay_sens { tau; sens }, None)

let replica_line r line =
  match H.span "protocol.parse" (fun () -> Protocol.parse_job_line line) with
  | Protocol.Blank | Protocol.Malformed _ -> "err"
  | Protocol.Job job ->
      let text =
        match job.deck with
        | Protocol.Deck_inline t -> t
        | Protocol.Deck_file _ -> failwith "file decks are not generated"
      in
      let m = memo_deck r text in
      let entry, asm =
        match H.span "deck_cache.find" (fun () -> Deck_cache.find_key r.cache m.skey) with
        | Deck_cache.Alias -> (None, memo_assembly m None)
        | Deck_cache.Hit e ->
            let asm = memo_assembly m (Some e.Deck_cache.asm_plan) in
            ensure_artifacts e m.netlist job.query asm;
            (Some e, asm)
        | Deck_cache.Miss ->
            let asm = memo_assembly m None in
            let e =
              {
                Deck_cache.signature = m.skey.Netlist.signature;
                asm_plan = asm.Assembly.plan;
                dc_sym = None;
                ac_sym = None;
                tran_plan = None;
              }
            in
            H.span "deck_cache.insert" (fun () -> Deck_cache.insert_key r.cache m.skey e);
            ensure_artifacts e m.netlist job.query asm;
            (Some e, asm)
      in
      let reply =
        match run_query entry asm job m.netlist with
        | outcome, refresh ->
            (match (refresh, entry) with
            | Some _, Some e -> e.Deck_cache.dc_sym <- refresh
            | _ -> ());
            Ok outcome
        | exception (Failure msg | Invalid_argument msg | Sys_error msg) -> Error msg
        | exception e -> Error (Printexc.to_string e)
      in
      H.span "protocol.render" (fun () -> Protocol.result_line { Protocol.id = job.id; reply })

let replica_state jobs =
  let r =
    {
      cache = Deck_cache.create ~capacity:Service.default_config.Service.cache_capacity ();
      memo = Hashtbl.create 64;
      clock = 0;
      memo_hits = 0;
      memo_misses = 0;
      parsed_bytes = 0;
    }
  in
  let st = { jobs; run = replica_line r; answers = Array.make period ""; log = None } in
  warm st;
  (st, r)
