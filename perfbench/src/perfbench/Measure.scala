package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call: wall time plus the JVM-wide allocation and GC deltas
  * observed around it.
  */
final case class Sample(ms: Double, allocBytes: Long, gcMs: Long, gcCount: Long, jitMs: Long)

object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  /** Bytes allocated by all threads since JVM start, exited threads included
    * (so the rank threads of a finished MpiRuntime still count).
    */
  def allocated: Long = threads.getTotalThreadAllocatedBytes
  def gcMs: Long = gcs.map(_.getCollectionTime).sum
  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  private val jit = ManagementFactory.getCompilationMXBean
  /** Milliseconds the JIT compiler threads have spent compiling. */
  def jitMs: Long = jit.getTotalCompilationTime

  /** Times `f`; with `collect`, from a freshly collected heap, so every
    * query meets the same heap state and its GC pauses are its own.
    */
  def measure[T](collect: Boolean)(f: => T): (T, Sample) = {
    if (collect) System.gc()
    val a0 = allocated; val g0 = gcMs; val c0 = gcCount; val j0 = jitMs
    val t0 = System.nanoTime()
    val r = f
    val t1 = System.nanoTime()
    (r, Sample((t1 - t0) / 1e6, allocated - a0, gcMs - g0, gcCount - c0, jitMs - j0))
  }

  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Nearest-rank percentile (`p` in 0..100) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Int): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val rank = math.ceil(p / 100.0 * s.size).toInt
    s(math.min(s.size, math.max(1, rank)) - 1)
  }

  /** The highest whole percentile with at least ten samples above it —
    * never below the median: samples of fewer than twenty fall back to p50.
    */
  def tailPercentile(n: Int): Int =
    math.max(50, math.floor(100.0 * (1.0 - 10.0 / n)).toInt)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** One traced interval; `parent` and `query` are -1 at the top level. */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      start: Long, end: Long, attrs: Map[String, String])

/** In-memory span recorder, written out once at the end of a traced run.
  * Spans nest through a stack (all spans are opened on the driver thread);
  * `attach` adds spans measured elsewhere, e.g. per-rank phase durations.
  * When disabled every call runs its body and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var queryId = -1
  private val origin = System.nanoTime()

  def query[T](id: Int)(f: => T): T = {
    val q = queryId
    queryId = id
    try f finally queryId = q
  }

  def span[T](name: String, attrs: Map[String, String] = Map.empty)(f: => T): T =
    if (!enabled) f
    else {
      val id = spans.size
      spans += null // reserve the id so children can point at it
      stack = id :: stack
      val t0 = System.nanoTime()
      try f
      finally {
        stack = stack.tail
        spans(id) = Span(id, stack.headOption.getOrElse(-1), queryId, name,
          t0, System.nanoTime(), attrs)
      }
    }

  def attach(name: String, parent: Int, start: Long, end: Long,
             attrs: Map[String, String] = Map.empty): Int =
    if (!enabled) -1
    else {
      val id = spans.size
      spans += Span(id, parent, queryId, name, start, end, attrs)
      id
    }

  def last(name: String): Option[Span] = spans.reverseIterator.find(s => s != null && s.name == name)

  /** Duration of each span minus the part of its interval its children
    * cover (children clipped to the parent, overlaps merged).
    */
  def selfNanos: Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val cs = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L; var curA = Long.MinValue; var curB = Long.MinValue
      cs.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> ((s.end - s.start) - covered)
    }.toMap
  }

  /** Per span name: (count, total ms, total self ms). */
  def summary: Seq[(String, Int, Double, Double)] = {
    val self = selfNanos
    spans.groupBy(_.name).toSeq.map { case (n, ss) =>
      (n, ss.size, ss.map(s => s.end - s.start).sum / 1e6, ss.map(s => self(s.id)).sum / 1e6)
    }.sortBy(-_._4)
  }

  def toJson: String = {
    val self = selfNanos
    spans.map { s =>
      Json.obj(Seq(
        "id" -> Json.num(s.id), "parent" -> Json.num(s.parent), "query" -> Json.num(s.query),
        "name" -> Json.str(s.name),
        "start_us" -> Json.num((s.start - origin) / 1e3), "end_us" -> Json.num((s.end - origin) / 1e3),
        "self_us" -> Json.num(self(s.id) / 1e3),
        "attrs" -> Json.obj(s.attrs.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.str(v) })))
    }.mkString("[\n", ",\n", "\n]\n")
  }
}

/** Minimal JSON rendering (the harness depends on nothing but the program). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
  def num(l: Long): String = l.toString
  def num(i: Int): String = i.toString
  def obj(kvs: Seq[(String, String)]): String =
    kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(vs: Seq[String]): String = vs.mkString("[", ", ", "]")
}
