(* Typed FHE error taxonomy — the single vocabulary every layer of the stack
   (crypto schemes, HISA backends, runtime kernels, compiler passes) uses to
   report a violated invariant.

   CHET's contract is that compiled programs are correct by construction:
   scales stay consistent, the modulus chain never exhausts, rescale divisors
   are legal (§5.2 of the paper). When that contract is broken — a compiler
   bug, a corrupted ciphertext off the wire, a mis-configured deployment —
   the failure must carry enough structure for the caller to either repair
   (retry the next candidate configuration) or report (which circuit node,
   which op, what was expected vs observed). A bare [failwith] can do
   neither.

   This module lives in its own dependency-free library so that both
   [Chet_crypto] (below the HISA) and [Chet_hisa]/[Chet_runtime] (above it)
   can raise the same exception; [Chet_hisa.Herr] re-exports it. *)

type error =
  | Scale_mismatch of { expected : float; got : float }
      (** Operands of an add/sub (or ct vs plaintext) disagree on their
          fixed-point scale, or a backend reported a scale that contradicts
          the checker's shadow computation. *)
  | Level_mismatch of { expected : int; got : int }
      (** Modulus levels (RNS prime count, or logQ bits) disagree: between
          binary-op operands, or between a backend's report and the
          checker's prediction. *)
  | Modulus_exhausted of { level : int; requested : int }
      (** The modulus chain ran out: [level] is what remains, [requested]
          what the op needed (primes to drop, bits to consume, or 1 for "any
          headroom before a multiply"). Recoverable by recompiling with more
          primes or smaller scales. *)
  | Slot_overflow of { slots : int; requested : int }
      (** A vector, layout or rotation does not fit the SIMD width. *)
  | Illegal_rescale of { divisor : int; reason : string }
      (** The rescale divisor is not one the scheme can apply (not a product
          of next chain primes / not a power of two), or the backend failed
          to apply it (a dropped rescale). *)
  | Numeric_blowup of { slot : int; value : float }
      (** A NaN/Inf (or otherwise non-encodable value) appeared in plaintext
          data entering or leaving the scheme. *)
  | Corrupt_ciphertext of { reason : string }
      (** A ciphertext failed an integrity check: decode values outside any
          plausible message magnitude, checksum failure. *)
  | Shape_mismatch of { expected : string; got : string }
      (** Tensor/layout geometry disagreement in the runtime kernels. *)
  | Missing_node of { node_id : int }
      (** The executor was asked about a circuit node it has no value or
          layout assignment for. *)
  | Missing_rotation_key of { amount : int }
      (** The evaluator lacks the Galois key for this rotation amount (and
          could not decompose it into available keys). *)
  | Invalid_op of { reason : string }
      (** Structured catch-all for other violated preconditions. *)
  | Overloaded of { queue_depth : int; high_water : int }
      (** The serving layer shed this request: the job queue was at or past
          its high-water mark when it arrived. The request was never
          enqueued; retrying later (client-side backoff) is safe. *)
  | Deadline_exceeded of { budget_ms : float; elapsed_ms : float }
      (** The request's deadline passed before a result was produced —
          either while queued (the pool never started it) or mid-inference
          (the caller abandoned the in-flight attempt). *)
  | Worker_crashed of { worker : int; reason : string }
      (** A pool worker caught a non-FHE exception escaping an inference
          (a backend bug, not a typed invariant violation). The worker
          itself survives; the request is reported failed with the
          captured reason. *)
  | Corrupt_bundle of { path : string; reason : string }
      (** A persisted deployment-store entry (generation, manifest or
          sidecar state file) failed its integrity check: missing file,
          length or checksum mismatch, unparseable manifest. The store
          quarantines the entry and serves the previous generation; this
          error reports what was damaged and why. *)
  | Corrupt_frame of { frame : string; reason : string }
      (** A wire frame (REQ1 request, RSP1 response, HLTH health probe, or
          any other Serial frame arriving over a socket) failed its
          integrity check: bad tag, implausible length, checksum mismatch,
          or a truncated/torn transmission. The connection's byte stream
          can no longer be trusted to be in sync, so the peer answers with
          this typed rejection and closes — never hangs or parses on. *)
  | Cancelled of { node_id : int option; reason : string }
      (** A cooperative cancel token tripped while the request was running:
          the caller abandoned it, a hedge sibling won, a CNCL frame asked
          for it, or its deadline passed mid-circuit. [node_id] is the
          circuit node at whose boundary the executor noticed the trip —
          the work completed up to there was kept honest, everything after
          was saved. Not retryable: the requester no longer wants the
          answer. *)
  | Integrity_violation of { slot : int; expected : float; got : float }
      (** A sentinel slot decrypted to a value outside the compiled
          precision tolerance of its clear-reference prediction: the
          ciphertext was silently corrupted somewhere between encrypt and
          decrypt (a bit flip, a buggy kernel, a faulty shard). The primary
          result shares the ciphertext and cannot be trusted. Retryable —
          on a {e different} shard. [slot] is the worst offending sentinel
          slot; [expected]/[got] are its reference and decrypted values. *)

type context = {
  op : string;  (** HISA/kernel operation, e.g. ["mul"], ["conv2d"] *)
  backend : string;  (** origin layer, e.g. ["rns_ckks"], ["clear"], ["checked"] *)
  node_id : int option;  (** circuit node, once the executor has attached it *)
  layer : string option;  (** human description of the circuit layer *)
}

exception Fhe_error of error * context

let context ?(backend = "") ?node_id ?layer op = { op; backend; node_id; layer }

let raise_err ?backend ?node_id ?layer ~op error =
  raise (Fhe_error (error, context ?backend ?node_id ?layer op))

let error_name = function
  | Scale_mismatch _ -> "scale mismatch"
  | Level_mismatch _ -> "level mismatch"
  | Modulus_exhausted _ -> "modulus exhausted"
  | Slot_overflow _ -> "slot overflow"
  | Illegal_rescale _ -> "illegal rescale"
  | Numeric_blowup _ -> "numeric blowup"
  | Corrupt_ciphertext _ -> "corrupt ciphertext"
  | Shape_mismatch _ -> "shape mismatch"
  | Missing_node _ -> "missing node"
  | Missing_rotation_key _ -> "missing rotation key"
  | Invalid_op _ -> "invalid op"
  | Overloaded _ -> "overloaded"
  | Deadline_exceeded _ -> "deadline exceeded"
  | Worker_crashed _ -> "worker crashed"
  | Corrupt_bundle _ -> "corrupt bundle"
  | Corrupt_frame _ -> "corrupt frame"
  | Cancelled _ -> "cancelled"
  | Integrity_violation _ -> "integrity violation"

let error_detail = function
  | Scale_mismatch { expected; got } -> Printf.sprintf "expected scale %.6g, got %.6g" expected got
  | Level_mismatch { expected; got } -> Printf.sprintf "expected level %d, got %d" expected got
  | Modulus_exhausted { level; requested } ->
      Printf.sprintf "%d level(s)/bit(s) remaining, op needs %d" level requested
  | Slot_overflow { slots; requested } -> Printf.sprintf "%d slots available, %d requested" slots requested
  | Illegal_rescale { divisor; reason } -> Printf.sprintf "divisor %d: %s" divisor reason
  | Numeric_blowup { slot; value } -> Printf.sprintf "slot %d holds %h (%.6g)" slot value value
  | Corrupt_ciphertext { reason } -> reason
  | Shape_mismatch { expected; got } -> Printf.sprintf "expected %s, got %s" expected got
  | Missing_node { node_id } -> Printf.sprintf "no value/assignment for circuit node %d" node_id
  | Missing_rotation_key { amount } ->
      Printf.sprintf "no Galois key reaches rotation by %d (regenerate keys or use --power-of-two keys)" amount
  | Invalid_op { reason } -> reason
  | Overloaded { queue_depth; high_water } ->
      Printf.sprintf "queue depth %d at/above high-water mark %d; request shed" queue_depth high_water
  | Deadline_exceeded { budget_ms; elapsed_ms } ->
      Printf.sprintf "deadline %.1f ms, %.1f ms elapsed" budget_ms elapsed_ms
  | Worker_crashed { worker; reason } -> Printf.sprintf "worker %d: %s" worker reason
  | Corrupt_bundle { path; reason } -> Printf.sprintf "%s: %s" path reason
  | Corrupt_frame { frame; reason } -> Printf.sprintf "%s: %s" frame reason
  | Cancelled { node_id; reason } -> (
      match node_id with
      | Some id -> Printf.sprintf "cancelled at node %d: %s" id reason
      | None -> Printf.sprintf "cancelled: %s" reason)
  | Integrity_violation { slot; expected; got } ->
      Printf.sprintf "sentinel slot %d decrypted to %.6g, reference predicts %.6g" slot got
        expected

(* One line, grep-able, front-loaded with the coordinates a human needs:
   where (node/layer), what op, which backend, which invariant, details. *)
let to_string (e, c) =
  let b = Buffer.create 96 in
  Buffer.add_string b "FHE error: ";
  Buffer.add_string b (error_name e);
  (match c.node_id with
  | Some id -> Buffer.add_string b (Printf.sprintf " at node %d" id)
  | None -> ());
  (match c.layer with Some l -> Buffer.add_string b (Printf.sprintf " (%s)" l) | None -> ());
  if c.op <> "" then Buffer.add_string b (Printf.sprintf " in %s" c.op);
  if c.backend <> "" then Buffer.add_string b (Printf.sprintf " [%s]" c.backend);
  Buffer.add_string b ": ";
  Buffer.add_string b (error_detail e);
  Buffer.contents b

let pp fmt ec = Format.pp_print_string fmt (to_string ec)

let to_result f = try Ok (f ()) with Fhe_error (e, c) -> Error (e, c)

(* Attach circuit coordinates to errors escaping a per-node computation.
   Errors that already carry a node id (from a nested executor) pass
   through untouched. *)
let with_node ~node_id ~layer f =
  try f ()
  with Fhe_error (e, c) when c.node_id = None ->
    raise (Fhe_error (e, { c with node_id = Some node_id; layer = Some layer }))

(* 1e-4 relative slack: kernels equalise scales only approximately (integer
   mask factors, RNS rescaling drift); value error stays well below the
   scheme noise floor. Shared so every layer agrees on "compatible". *)
let scale_tolerance = 1e-4
let scales_compatible a b = Float.abs (a -. b) <= scale_tolerance *. Float.max 1.0 (Float.max a b)

let () =
  Printexc.register_printer (function Fhe_error (e, c) -> Some (to_string (e, c)) | _ -> None)
