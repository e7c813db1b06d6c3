(* opt-verify: the paper's own path.  Each op draws a technology node
   (250 nm or 100 nm) and a line inductance l in [0, 3] nH/mm, solves
   for the optimal repeater spacing and size (h, k) with
   [Rlc_opt.optimize], builds that repeater stage (a driver of
   resistance Rs/k and output capacitance Cp*k, a 12-segment ladder of
   length h, a C0*k load) and verifies its 50 % delay with the adaptive
   transient engine and [Measure].

   Every block of 16 cases holds 8 cases per node, whose inductances
   are stratified over eight equal slices of the range: the per-op cost
   depends on l (ringing lines take more steps), and stratifying keeps
   the mix the same for every seed.  One case per block is a reference
   case: it also checks that Newton and Nelder-Mead agree on the
   optimum and re-simulates the stage at a hundredth of the tolerance.
   These cases form the slowest latency mode, 1/16 of the ops, so the
   99th percentile lies inside it rather than among the ops a passing
   machine hiccup slowed.

   opt-verify runs the cases one by one on one domain; opt-verify-j2
   runs the same case stream in sweeps of 16 over a 2-domain
   [Pool.map], the way a parallel [rlcopt sweep] fans out. *)

open Rlc_circuit
module H = Harness
module Rlc_opt = Rlc_core.Rlc_opt
module Presets = Rlc_tech.Presets
module Node = Rlc_tech.Node
module Driver = Rlc_tech.Driver
module Pool = Rlc_parallel.Pool

let block = 16
let n_cases = 4096
let l_max = 3e-6
let segments = 12

type case = { node : Node.t; l : float; reference : bool }

let generate ~seed =
  let st = Random.State.make [| seed; 0x0b7 |] in
  let half = block / 2 in
  Array.concat
    (List.init (n_cases / block) (fun _ ->
         let cases =
           Array.init block (fun i ->
               let node = if i < half then Presets.node_250nm else Presets.node_100nm in
               let slice = float_of_int (i mod half) in
               {
                 node;
                 l = l_max *. (slice +. Random.State.float st 1.0) /. float_of_int half;
                 reference = false;
               })
         in
         (* The reference case is always the most inductive slice of
            the 100 nm node, so that its cost, and with it the 99th
            percentile, does not depend on the seed.  It leads its
            block, so that a sweep over the pool starts its longest
            case first; the other 15 follow in a seeded order. *)
         let r = block - 1 in
         let first = cases.(r) in
         cases.(r) <- cases.(0);
         cases.(0) <- { first with reference = true };
         for i = block - 1 downto 2 do
           let j = 1 + Random.State.int st i in
           let t = cases.(i) in
           cases.(i) <- cases.(j);
           cases.(j) <- t
         done;
         cases))

(* The repeater stage driven by a unit step, and its far-end node. *)
let stage_netlist (c : case) (r : Rlc_opt.result) =
  let d = c.node.Node.driver in
  let k = r.Rlc_opt.k in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let drv = Netlist.fresh_node nl in
  let far = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl src drv (Driver.scaled_rs d ~k);
  Netlist.add_capacitor nl drv Netlist.ground (Driver.scaled_cp d ~k);
  Ladder.make nl
    { Ladder.r = c.node.Node.r; l = c.l; c = c.node.Node.c; length = r.Rlc_opt.h; segments }
    ~from_node:drv ~to_node:far;
  Netlist.add_capacitor nl far Netlist.ground (Driver.scaled_c0 d ~k);
  (nl, far)

let default_rtol = Transient.Config.default.Transient.Config.rtol

let delay ~rtol nl far ~tau =
  let config = { Transient.Config.default with rtol } in
  let probe = Transient.Node_v far in
  let w =
    Transient.simulate_adaptive ~config nl ~t_end:(4.0 *. tau) ~dt_max:(tau /. 25.0)
      ~probes:[ probe ]
    |> fun res -> Transient.get res probe
  in
  H.span "measure.crossing" (fun () ->
      Rlc_waveform.Measure.threshold_delay w ~fraction:0.5 ~v_final:1.0)

(* Newton and Nelder-Mead agree on the optimum, and the simulated delay
   matches a run at a hundredth of the tolerance. *)
let reference_check (c : case) opt nl far sim =
  let nm = H.span "rlc_opt.crosscheck" (fun () -> Rlc_opt.optimize_nm_only c.node ~l:c.l) in
  let agree =
    match H.span "rlc_opt.crosscheck" (fun () -> Rlc_opt.optimize_newton_only c.node ~l:c.l) with
    | Some nt -> Float.abs ((nt.Rlc_opt.delay_per_length /. nm.Rlc_opt.delay_per_length) -. 1.0) < 1e-4
    | None -> true
  in
  let reference =
    H.span "transient.reference" (fun () ->
        delay ~rtol:(default_rtol /. 100.0) nl far ~tau:opt.Rlc_opt.tau)
  in
  agree
  &&
  match (sim, reference) with
  | Some a, Some b -> Float.abs (a -. b) <= 2e-3 *. b
  | _ -> false

(* One case and its check: besides the reference check, the simulated
   50 % delay must lie within the two-pole model's truncation error of
   the delay the optimiser predicted.  Returns whether Nelder-Mead
   produced the optimum, and the check. *)
let run_case (c : case) =
  let opt = H.span "rlc_opt.optimize" (fun () -> Rlc_opt.optimize c.node ~l:c.l) in
  let nl, far = H.span "ladder.build" (fun () -> stage_netlist c opt) in
  let tau = opt.Rlc_opt.tau in
  let sim = H.span "transient.adaptive" (fun () -> delay ~rtol:default_rtol nl far ~tau) in
  let plausible =
    match sim with Some d -> Float.abs ((d /. tau) -. 1.0) < 0.25 | None -> false
  in
  let ok = plausible && ((not c.reference) || reference_check c opt nl far sim) in
  (opt.Rlc_opt.method_ = Rlc_opt.Nelder_mead, ok)

type state = {
  cases : case array;
  pool : Pool.t;
  mutable nm_results : int;  (** ops whose optimum came from Nelder-Mead *)
}

let count st nm = if nm then st.nm_results <- st.nm_results + 1

(* Set-up is warm-up only: the path keeps no caches, so it runs four
   blocks of cases to settle the heap. *)
let setup ~domains cases =
  let st = { cases; pool = Pool.create ~domains (); nm_results = 0 } in
  for i = 0 to (4 * block) - 1 do
    H.tick ();
    ignore (run_case cases.(i))
  done;
  st

let op st i =
  let nm, ok = run_case st.cases.(i mod n_cases) in
  count st nm;
  ok

(* One request of the parallel variant: a sweep of [block] cases over
   the pool; each case's latency is measured on the domain that ran
   it.  Spans are not recorded on pool workers. *)
let sweep st i ~record =
  let base = i * block in
  let results =
    H.span "pool.map" (fun () ->
        H.untraced (fun () ->
            Pool.map st.pool
              (fun j ->
                let t0 = H.now () in
                let r = try run_case st.cases.((base + j) mod n_cases) with _ -> (false, false) in
                (r, H.now () -. t0))
              (Array.init block Fun.id)))
  in
  Array.iter
    (fun ((nm, ok), latency) ->
      count st nm;
      record latency ok)
    results;
  block
