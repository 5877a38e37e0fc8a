(** Descriptive statistics for experiment measurements.

    The experiment harness estimates expected makespans by Monte-Carlo
    simulation; this module provides the summaries (mean, confidence
    intervals, quantiles) those estimates are reported with, plus the
    least-squares fits used to check asymptotic shapes (e.g. ratio vs
    log n). *)

type summary = {
  count : int;
  mean : float;
  variance : float;  (** unbiased sample variance (n-1 denominator) *)
  stddev : float;
  min : float;
  max : float;
  sem : float;  (** standard error of the mean *)
  ci95 : float;  (** half-width of the normal-approximation 95% CI *)
}

val summarize : float array -> summary
(** Single-pass Welford summary of a non-empty sample. *)

val mean : float array -> float
(** Arithmetic mean of a non-empty array. *)

val variance : float array -> float
(** Unbiased sample variance; [0.] for samples of size < 2. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], by linear interpolation between
    order statistics (type-7, the R default). Does not mutate [xs]. *)

val median : float array -> float

val linear_fit : (float * float) array -> float * float
(** [linear_fit pts] is [(slope, intercept)] of the least-squares line
    through the points. Requires at least two distinct x values. *)

val r_squared : (float * float) array -> float * float -> float
(** [r_squared pts (slope, intercept)] is the coefficient of determination
    of the given line on the points. *)
