(** Closed-form unit-step response of the second-order Padé model:

    v(t) = 1 - s2/(s2 - s1) exp(s1 t) + s1/(s2 - s1) exp(s2 t)

    (final value 1).  Near critical damping the expression suffers
    catastrophic cancellation, so a repeated-root formula
    v(t) = 1 - (1 + a t) exp(-a t), a = b1 / (2 b2), takes over. *)

val eval : Pade.coeffs -> float -> float
(** [eval cs t] for t >= 0; [eval cs 0.0 = 0.0].  Negative [t] raises
    [Invalid_argument]. *)

val eval_stage : Stage.t -> float -> float

val derivative : Pade.coeffs -> float -> float
(** dv/dt in closed form (used by the Newton delay solver). *)

type prepared
(** The per-coefficient part of {!eval} and {!derivative}: the
    near-critical test and either the repeated-root rate or the poles
    with their residues.  A root-finder that evaluates one response at
    many times prepares it once. *)

val prepare : Pade.coeffs -> prepared
(** Requires b2 > 0, as {!Poles.of_coeffs} does. *)

val eval_prepared : prepared -> float -> float
(** [eval_prepared (prepare cs) t] is bit-identical to [eval cs t]. *)

val derivative_prepared : prepared -> float -> float
(** [derivative_prepared (prepare cs) t] is bit-identical to
    [derivative cs t]. *)

val waveform : ?v0:float -> ?n:int -> Pade.coeffs -> t_end:float -> Rlc_waveform.Waveform.t
(** Sampled response scaled to final value [v0] (default 1.0). *)

val overshoot : Pade.coeffs -> float
(** Peak overshoot above the final value, as a fraction of the final
    value: exp(-pi zeta / sqrt(1 - zeta^2)) for zeta < 1, else 0. *)

val peak_time : Pade.coeffs -> float option
(** Time of the first response peak (underdamped only):
    pi / (omega_n sqrt(1 - zeta^2)). *)

val undershoot_depth : Pade.coeffs -> float
(** Depth of the first post-peak trough below the final value, as a
    fraction of the final value: overshoot^2 for an underdamped
    second-order system, else 0.  This is the excursion that flips
    inverters in Section 3.3.1. *)
