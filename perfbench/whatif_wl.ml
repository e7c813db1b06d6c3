(* whatif-sweep: one client evaluating points on one [Whatif] workspace
   compiled from a 40x40 [Pdn.rc_grid].

   The workspace serves updates of rank up to [max_rank] = 4.  Every
   block of 50 points holds the same mix in a seeded order: 48
   evaluations perturbing 1 to 4 of 12 grid-edge resistances (40 of
   them against a DC node voltage, 8 against an AC magnitude), one DC
   evaluation perturbing 6 of them, which exceeds [max_rank] and
   forces the refactor fallback, and one adjoint gradient of the AC
   magnitude with respect to all 12.  Almost all of the time goes to
   rank-k updates and solver refactors; parsing, the deck caches, the
   transient engine and the pool are not on this path. *)

open Rlc_circuit
module H = Harness

let n_grid = 40
let max_rank = 4
let block = 50
let n_points = 4000
let omega = 2.0 *. Float.pi *. 1e7

(* indices into [state.targets] *)
let dc = 0
let ac = 1

type kind = Update | Fallback | Gradient

type point = {
  kind : kind;
  set : (int * float) list;  (** parameter index, multiplier *)
  target : int;  (** index into [targets] *)
}

type state = {
  ws : Whatif.t;
  params : Whatif.param array;
  targets : Whatif.target array;
  points : point array;
}

(* Twelve edges spread over the mesh, away from the corner ports. *)
let edge_names =
  Array.init 12 (fun i ->
      let r = 3 + (i * 3) and c = 5 + (i * 7 mod 29) in
      if i mod 2 = 0 then Printf.sprintf "rh%d_%d" r c else Printf.sprintf "rv%d_%d" r c)

let generate ~seed =
  let st = Random.State.make [| seed; 0x3a7f |] in
  let pick k =
    (* k distinct parameter indices *)
    let idx = Array.init 12 Fun.id in
    for i = 11 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    List.init k (fun i -> (idx.(i), 0.7 +. Random.State.float st 0.6))
  in
  (* The mix is fixed per block, not drawn, and shaped by the latency
     modes it makes.  A DC update costs tens of microseconds, growing
     with its rank; an AC update, a fallback and a gradient each cost
     ten times more than the one before.  With 40 DC updates (10 per
     rank) the median falls in the middle of the rank-3 DC updates,
     and with the gradient alone in the slowest 2 % the 99th
     percentile falls in the middle of the gradients. *)
  let kinds =
    Array.init block (fun i ->
        if i = 0 then (Gradient, 2, ac)
        else if i = 1 then (Fallback, max_rank + 2, dc)
        else if i < 42 then (Update, 1 + ((i - 2) mod max_rank), dc)
        else (Update, 1 + ((i - 42) mod max_rank), ac))
  in
  let out = ref [] in
  for _ = 1 to n_points / block do
    let order = Array.copy kinds in
    for i = block - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter
      (fun (kind, rank, target) -> out := { kind; set = pick rank; target } :: !out)
      order
  done;
  Array.of_list (List.rev !out)

let compile ?(max_rank = max_rank) () =
  let pdn = Pdn.build (Pdn.rc_grid ~rows:n_grid ~cols:n_grid ()) in
  let ws = Whatif.compile ~max_rank pdn.Pdn.netlist in
  let params = Array.map (fun name -> Whatif.param ws name `R) edge_names in
  let probe = Pdn.node pdn ~row:(n_grid / 2) ~col:(n_grid / 2) in
  let targets =
    [| Whatif.Dc_voltage probe; Whatif.Ac_mag (probe, omega) |]
  in
  (ws, params, targets)

let settings params (p : point) =
  List.map (fun (i, mult) -> (params.(i), Whatif.base_value params.(i) *. mult)) p.set

let eval_point st (p : point) =
  let set = settings st.params p in
  let target = st.targets.(p.target) in
  match p.kind with
  | Gradient ->
      let g =
        H.span "whatif.gradient" (fun () -> Whatif.gradient ~set st.ws target ~wrt:st.params)
      in
      Array.for_all Float.is_finite g
  | Update | Fallback ->
      let before = (Whatif.stats st.ws).Whatif.refactors in
      let v =
        H.span_named (fun () ->
            let v = Whatif.evaluate ~set st.ws target in
            let name =
              if (Whatif.stats st.ws).Whatif.refactors > before then "whatif.refactor"
              else "whatif.update"
            in
            (v, name))
      in
      Float.is_finite v && v > 0.0

(* Set-up compiles the workspace and evaluates the first block, which
   fills its per-direction solve caches. *)
let setup points =
  let ws, params, targets = compile () in
  let st = { ws; params; targets; points } in
  for i = 0 to block - 1 do
    H.tick ();
    ignore (eval_point st points.(i))
  done;
  st

let op st i = eval_point st st.points.(i mod n_points)

(* Sampled points against a workspace that refactors every point. *)
let check st ~ops =
  let ws0, params0, targets0 = compile ~max_rank:0 () in
  let samples = min ops 200 in
  let stride = max 1 (ops / samples) in
  let failed = ref 0 in
  for s = 0 to samples - 1 do
    let p = st.points.((s * stride) mod n_points) in
    let target = st.targets.(p.target) and target0 = targets0.(p.target) in
    let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) in
    let ok =
      match p.kind with
      | Gradient ->
          let g = Whatif.gradient ~set:(settings st.params p) st.ws target ~wrt:st.params in
          let g0 = Whatif.gradient ~set:(settings params0 p) ws0 target0 ~wrt:params0 in
          let scale = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 g0 in
          Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9 *. scale) g g0
      | Update | Fallback ->
          close
            (Whatif.evaluate ~set:(settings st.params p) st.ws target)
            (Whatif.evaluate ~set:(settings params0 p) ws0 target0)
    in
    if not ok then incr failed
  done;
  (samples, !failed)
