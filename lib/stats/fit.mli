(** Least-squares fits used to classify empirical growth rates.  The paper's
    headline claim is that rapid sampling runs in Theta(log log n) rounds
    where plain walks need Theta(log n); we decide which model fits a
    measured (n, rounds) series better. *)

type line = { slope : float; intercept : float; r2 : float }

val linear : (float * float) array -> line
(** Ordinary least squares y = a x + b.  Requires >= 2 points with
    non-constant x. *)

type growth = Constant | Log_log | Log | Polynomial

val classify_growth : (float * float) array -> growth
(** Heuristic: picks the model with the best R^2 among constant / loglog /
    log / linear fits of y vs transformed x.  Input x values must be > 2 and
    increasing. *)

val growth_to_string : growth -> string
