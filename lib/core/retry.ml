type policy = { max_retries : int; factor : float; c_cap : float }

let fixed = { max_retries = 0; factor = 1.0; c_cap = infinity }

let make ?(max_retries = 3) ?(factor = 1.5) ?(c_cap = 8.0) () =
  if max_retries < 0 then invalid_arg "Retry.make: max_retries < 0";
  if factor < 1.0 || Float.is_nan factor then
    invalid_arg "Retry.make: factor < 1";
  if c_cap <= 0.0 || Float.is_nan c_cap then
    invalid_arg "Retry.make: c_cap <= 0";
  { max_retries; factor; c_cap }

let enabled p = p.max_retries > 0

let escalate p ~c ~attempt =
  max c (min p.c_cap (c *. (p.factor ** float_of_int attempt)))

(* Re-attempt a sampling run under a policy, escalating c between attempts.
   The first attempt consumes the rng exactly like the bare attempt
   function, so zero-retry runs are byte-identical to the paper's
   fault-free drivers. *)
let sampling_with_retry ~retry ~c ~trace ~attempt_fn =
  let rec go attempt c_now retries escalations =
    let r = attempt_fn ~c:c_now in
    if r.Sampling_result.underflows = 0 || attempt >= retry.max_retries then
      { r with Sampling_result.retries; escalations }
    else begin
      let c' = escalate retry ~c ~attempt:(attempt + 1) in
      if Simnet.Trace.enabled trace then
        Simnet.Trace.emit trace
          (Simnet.Trace.Note
             {
               name = "sampling/retry";
               fields =
                 [
                   ("attempt", Simnet.Trace.Int (attempt + 1));
                   ("c", Simnet.Trace.Float c');
                   ("underflows", Simnet.Trace.Int r.Sampling_result.underflows);
                 ];
             });
      go (attempt + 1) c' (retries + 1)
        (escalations + if c' > c_now then 1 else 0)
    end
  in
  go 0 c 0 0
